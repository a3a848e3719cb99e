package artifact

import "testing"

// FuzzDecode drives arbitrary bytes through the whole reading path — Sniff,
// strict Decode, Validate, Headlines, ExtractProvenance. The contract is an
// error, never a panic. The seed corpus under testdata/fuzz/FuzzDecode holds
// the golden fixtures plus truncated and mistyped variants, so `go test`
// replays it on every run.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		kind := Sniff(data)
		ExtractProvenance(data)
		d, err := Decode(data)
		if err != nil {
			if len(Headlines(data)) != 0 {
				t.Fatalf("undecodable %s artifact yielded headlines", kind)
			}
			return
		}
		if d.Kind != kind {
			t.Fatalf("decoded kind %s, sniffed %s", d.Kind, kind)
		}
		d.Validate()
		d.Headlines()
	})
}
