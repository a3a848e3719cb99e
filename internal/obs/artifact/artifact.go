// Package artifact owns the machine-readable records the benchmarks write —
// the bench record (BENCH_treecode.json) and the checkpoint-cadence sweep
// (FAULTSWEEP.json) — and reads the trace-analysis report (ANALYSIS.json,
// analysis.Report) alongside them. Every party that reads these files goes
// through it: the ssbench writers and diff gates, tracecheck, and the run
// ledger's headline metrics.
//
// A record is judged by the blocks it holds, not by a version number:
// Validate checks each block that is present, and the only cross-block rule
// is that engine results come with their metrics, distributed-run and
// analysis blocks.
package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"spacesim/internal/obs/analysis"
	"spacesim/internal/obs/ledger"
)

// Kind classifies artifact bytes.
type Kind string

// Artifact kinds recognized by Sniff.
const (
	KindBench      Kind = "bench"      // BENCH_treecode.json
	KindAnalysis   Kind = "analysis"   // ANALYSIS.json
	KindFaultsweep Kind = "faultsweep" // FAULTSWEEP.json
	KindUnknown    Kind = "unknown"
)

// Sniff classifies artifact bytes by their top-level keys. A bench record
// holds engine results or one of the benchmark blocks; both other kinds
// carry a schema_version too, so the discriminator is their own blocks.
func Sniff(data []byte) Kind {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return KindUnknown
	}
	for _, k := range []string{"results", "treebuild", "scale", "kernels"} {
		if _, ok := top[k]; ok {
			return KindBench
		}
	}
	if _, ok := top["baseline_virtual_sec"]; ok {
		return KindFaultsweep
	}
	if _, ok := top["critical_path"]; ok {
		return KindAnalysis
	}
	return KindUnknown
}

// Unmarshal decodes one JSON value into v strictly: unknown fields and
// trailing data are errors, so a record that drifted from these types is
// caught rather than half-read.
func Unmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Doc is one decoded artifact; the field matching Kind is set.
type Doc struct {
	Kind       Kind
	Bench      *Bench
	Analysis   *analysis.Report
	Faultsweep *Faultsweep
}

// Decode sniffs data and strictly decodes it into the matching type.
func Decode(data []byte) (Doc, error) {
	d := Doc{Kind: Sniff(data)}
	var err error
	switch d.Kind {
	case KindBench:
		d.Bench = &Bench{}
		err = Unmarshal(data, d.Bench)
	case KindAnalysis:
		d.Analysis = &analysis.Report{}
		err = Unmarshal(data, d.Analysis)
	case KindFaultsweep:
		d.Faultsweep = &Faultsweep{}
		err = Unmarshal(data, d.Faultsweep)
	default:
		err = errors.New("not a bench record, analysis report or faultsweep")
	}
	if err != nil {
		return Doc{Kind: d.Kind}, fmt.Errorf("%s: %w", d.Kind, err)
	}
	return d, nil
}

// Validate checks the decoded artifact.
func (d Doc) Validate() error {
	switch {
	case d.Bench != nil:
		return d.Bench.Validate()
	case d.Analysis != nil:
		return d.Analysis.Validate()
	case d.Faultsweep != nil:
		return d.Faultsweep.Validate()
	}
	return fmt.Errorf("%s: nothing decoded", d.Kind)
}

// Headlines returns the decoded artifact's headline metrics.
func (d Doc) Headlines() map[string]float64 {
	switch {
	case d.Bench != nil:
		return d.Bench.Headlines()
	case d.Analysis != nil:
		return d.Analysis.Headlines()
	case d.Faultsweep != nil:
		return d.Faultsweep.Headlines()
	}
	return map[string]float64{}
}

// Headlines returns the headline metrics of artifact bytes for the run
// ledger: virtual makespan and parallel efficiency, grouped-kernel
// ns/interaction, tree-build speedup, event-engine ranks/sec, checkpoint
// overhead. Unknown or malformed artifacts yield an empty map.
func Headlines(data []byte) map[string]float64 {
	d, err := Decode(data)
	if err != nil {
		return map[string]float64{}
	}
	return d.Headlines()
}

// ExtractProvenance reads the provenance block a writer stamps into its
// artifact, letting diff -baseline key a bare NEW.json back to its
// comparable ledger records. Any artifact kind works; other fields are
// ignored.
func ExtractProvenance(data []byte) (ledger.Provenance, bool) {
	var top struct {
		Provenance *ledger.Provenance `json:"provenance"`
	}
	if err := json.Unmarshal(data, &top); err != nil || top.Provenance == nil {
		return ledger.Provenance{}, false
	}
	return *top.Provenance, true
}

// putNonzero sets out[name] = v unless v is zero: a headline that was never
// measured is left out rather than recorded as 0.
func putNonzero(out map[string]float64, name string, v float64) {
	if v != 0 {
		out[name] = v
	}
}
