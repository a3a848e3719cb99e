package main

// The bench record (BENCH_treecode.json): its one writer, and the gates
// `ssbench diff` applies to two of them.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"spacesim/internal/obs/artifact"
	"spacesim/internal/obs/ledger"
)

// mergeBench updates the bench record at path: it reads the record if one
// is there, lets set fill in the experiment's block (set sees a zero N on a
// fresh record and mirrors its workload at the top level), stamps the
// schema version and cfg's provenance, writes the record, and appends the
// run to the ledger.
func mergeBench(path string, set func(*artifact.Bench), cfg ledger.Config) {
	var rep artifact.Bench
	if data, err := os.ReadFile(path); err == nil {
		if err := artifact.Unmarshal(data, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: existing %s unreadable: %v\n", path, err)
			os.Exit(1)
		}
	}
	set(&rep)
	rep.SchemaVersion = artifact.BenchSchemaVersion
	rep.Provenance = provFor(cfg)
	writeJSON(path, rep)
	ledgerAppend(cfg, filepath.Base(path), path)
}

// writeJSON writes v to path as indented JSON, exiting on failure.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// benchRow is one gated configuration of a bench block: the key entries
// are matched on across records and the metric compared.
type benchRow struct {
	key   string
	value float64
}

// benchGate is one block's arm of the bench-record diff, declared as data:
// rows from both records, the metric's direction and allowed fraction,
// whether the two runs are alike enough to gate, and the new record's
// failed correctness verdicts.
type benchGate struct {
	block        string
	metric       string // header label: what the rows measure
	frac         float64
	higherBetter bool
	haveOld      bool
	like         bool // only like-for-like runs gate; others are reported
	oldRows      []benchRow
	newRows      []benchRow
	fails        []string
}

// benchGates declares the diff arm of every benchmark block present in the
// new record.
func benchGates(o, n *artifact.Bench, treebuildFrac, scaleFrac, kernelFrac float64) []benchGate {
	var gates []benchGate
	if nb := n.Treebuild; nb != nil {
		rows := func(tb *artifact.Treebuild) []benchRow {
			var r []benchRow
			for _, e := range tb.Entries {
				r = append(r, benchRow{fmt.Sprintf("workers=%d", e.Workers), e.Seconds})
			}
			return r
		}
		g := benchGate{block: "treebuild", metric: "construction seconds", frac: treebuildFrac, newRows: rows(nb)}
		if !nb.BitIdentical {
			g.fails = append(g.fails, "new record is not bit-identical")
		}
		if ob := o.Treebuild; ob != nil {
			// A -quick record against a full one is reported, not failed.
			g.haveOld, g.like, g.oldRows = true, nb.N == ob.N, rows(ob)
		}
		gates = append(gates, g)
	}
	if ns := n.Scale; ns != nil {
		rows := func(sc *artifact.Scale) []benchRow {
			var r []benchRow
			for _, e := range sc.Entries {
				r = append(r, benchRow{fmt.Sprintf("%s/%s/%d", e.Workload, e.Engine, e.Ranks), e.RanksPerSec})
			}
			return r
		}
		g := benchGate{block: "scale", metric: "ranks/sec", frac: scaleFrac, higherBetter: true, newRows: rows(ns)}
		if !ns.BitIdentical {
			g.fails = append(g.fails, "new record is not bit-identical across engines")
		}
		if osc := o.Scale; osc != nil {
			g.haveOld, g.oldRows = true, rows(osc)
			g.like = osc.Quick == ns.Quick && osc.Steps == ns.Steps && osc.BodiesPerRank == ns.BodiesPerRank
		}
		gates = append(gates, g)
	}
	if nk := n.Kernels; nk != nil {
		rows := func(kr *artifact.Kernels) []benchRow {
			var r []benchRow
			for _, e := range kr.Entries {
				r = append(r, benchRow{fmt.Sprintf("%s/%s/%s/%d", e.Kernel, e.Variant, e.Precision, e.Length), e.NsPerInteraction})
			}
			return r
		}
		g := benchGate{block: "kernels", metric: "ns/interaction", frac: kernelFrac, newRows: rows(nk)}
		if !nk.DefaultBitIdentical {
			g.fails = append(g.fails, "new record is not bit-identical on the default path")
		}
		if nk.RmsAccErrFloat32 > nk.Float32ErrBudget {
			g.fails = append(g.fails, fmt.Sprintf("float32 RMS error %.3g exceeds budget %.3g",
				nk.RmsAccErrFloat32, nk.Float32ErrBudget))
		}
		if okr := o.Kernels; okr != nil {
			// Entries match on (kernel, variant, precision, length), so a
			// -quick sweep against a full one still gates the shared lengths.
			g.haveOld, g.like, g.oldRows = true, true, rows(okr)
		}
		gates = append(gates, g)
	}
	return gates
}

// run prints the arm's comparison and reports false when the new record
// failed a correctness verdict or, on like-for-like runs, any matching row
// moved the wrong way past frac.
func (g benchGate) run(oldPath string) bool {
	if !g.haveOld {
		fmt.Printf("%s: baseline %s has no %s block; nothing to compare\n", g.block, oldPath, g.block)
		return true
	}
	ok := true
	for _, f := range g.fails {
		fmt.Printf("FAIL %s: %s\n", g.block, f)
		ok = false
	}
	oldBy := map[string]float64{}
	for _, r := range g.oldRows {
		oldBy[r.key] = r.value
	}
	sign := "+"
	if g.higherBetter {
		sign = "-"
	}
	fmt.Printf("%s (allowed %s%.0f%% %s):\n", g.block, sign, 100*g.frac, g.metric)
	fmt.Printf("  %-28s %12s %12s %8s\n", "config", "old", "new", "ratio")
	for _, r := range g.newRows {
		old, have := oldBy[r.key]
		if !have {
			fmt.Printf("  %-28s %12s %12.4g %8s (no baseline)\n", r.key, "-", r.value, "-")
			continue
		}
		worse := r.value > old*(1+g.frac)
		if g.higherBetter {
			worse = r.value < old*(1-g.frac)
		}
		verdict := ""
		if g.like && worse {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Printf("  %-28s %12.4g %12.4g %7.2fx%s\n", r.key, old, r.value, ratioOf(r.value, old), verdict)
	}
	if ok {
		fmt.Printf("%s: OK\n", g.block)
	}
	return ok
}

// ratioOf returns a/b guarding against a zero baseline.
func ratioOf(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
