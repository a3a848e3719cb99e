package ledger

import (
	"strings"
	"testing"

	"spacesim/internal/obs"
)

func TestProvHostKeyAndStamp(t *testing.T) {
	p := Prov()
	if p.GoVersion == "" || p.GOMAXPROCS == 0 {
		t.Fatalf("Prov incomplete: %+v", p)
	}
	if !strings.Contains(p.HostKey(), p.GOOS) {
		t.Fatalf("HostKey %q missing goos", p.HostKey())
	}
	reg := obs.NewRegistry()
	p.Stamp(reg)
	texts := reg.TextSnapshots()
	v, ok := texts["build.info"]
	if !ok || !strings.Contains(v, "go_version=") || !strings.Contains(v, "gomaxprocs=") {
		t.Fatalf("build.info text = %q, %v", v, ok)
	}
	// Nil registry must be a no-op, matching the rest of obs.
	p.Stamp(nil)
}
