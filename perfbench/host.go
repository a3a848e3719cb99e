package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and the code a result came from, so
// numbers from different hosts or trees are never compared.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, or, when the tree was
// built outside a repository, "src:" and a SHA-256 prefix over go.mod and
// every Go file under internal/ of the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// peakRSSMB is the process's resident-memory high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// hostSample is the process-wide runtime state at one instant.
type hostSample struct {
	wall       time.Time
	cpu        time.Duration // user + system CPU of the process
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time if unavailable
	return hostSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
	}
}

// setRuntime reports the runtime layer between two samples, per step.
func setRuntime(rep *report, a, b hostSample, steps int) {
	n := float64(steps)
	rep.set("runtime.alloc_mb_per_step", float64(b.allocBytes-a.allocBytes)/(1<<20)/n)
	rep.set("runtime.gc_cycles_per_step", float64(b.gcCycles-a.gcCycles)/n)
	rep.set("runtime.gc_pause_s", float64(b.gcPauseNS-a.gcPauseNS)/1e9/n)
	wall := b.wall.Sub(a.wall).Seconds()
	rep.set("host.cpu_util", ratio((b.cpu-a.cpu).Seconds(), wall*float64(runtime.GOMAXPROCS(0))))
}
