package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Envelope is the one shape of every recorded benchmark result (the
// BENCH_*.json files): which experiment ran, on which host and workload,
// what it measured, and how each of its gates came out. Per-row detail is
// flattened into Metrics under slash-separated names such as
// "scan_ms/shards=4" or "slab_ns_per_op/paper/avq".
type Envelope struct {
	Experiment string             `json:"experiment"`
	Host       Host               `json:"host"`
	Workload   map[string]float64 `json:"workload"`
	Metrics    map[string]float64 `json:"metrics"`
	Gates      []Gate             `json:"gates"`
}

// Host records where a result was measured.
type Host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// Gate statuses. A waived gate was not evaluated on this host and counts
// neither as a pass nor as a failure.
const (
	StatusPass   = "pass"
	StatusFail   = "fail"
	StatusWaived = "waived"
)

// Gate is one acceptance check, Value Op Bound. Note is set only on a
// waived gate and says why it was waived.
type Gate struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Op     string  `json:"op"`
	Bound  float64 `json:"bound"`
	Status string  `json:"status"`
	Note   string  `json:"note,omitempty"`
}

// Result returns e itself: every recorded experiment result embeds its
// Envelope, and hands it out through this one method.
func (e *Envelope) Result() *Envelope { return e }

// newEnvelope starts an experiment's result on this host.
func newEnvelope(experiment string, workload map[string]float64) Envelope {
	return Envelope{
		Experiment: experiment,
		Host: Host{
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			Commit:     buildCommit(),
		},
		Workload: workload,
		Metrics:  map[string]float64{},
		Gates:    []Gate{},
	}
}

// buildCommit is the VCS revision the running binary was built from,
// suffixed "-dirty" when the tree had local changes, or "unknown" when
// the build recorded none: `go build` stamps it, `go run` and `go test`
// do not.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// millis converts d to milliseconds at microsecond resolution, the unit
// of every *_ms metric.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0 (nothing measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check evaluates value op bound into a gate.
func check(name string, value float64, op string, bound float64) Gate {
	ok := op == "<=" && value <= bound || op == ">=" && value >= bound || op == "==" && value == bound
	g := Gate{Name: name, Value: value, Op: op, Bound: bound, Status: StatusFail}
	if ok {
		g.Status = StatusPass
	}
	return g
}

// holds records a yes/no check as a gate: value 1 when ok, bound 1.
func holds(name string, ok bool) Gate {
	v := 0.0
	if ok {
		v = 1
	}
	return check(name, v, "==", 1)
}

// waive marks g as not evaluated on this host, for the reason note.
func (g Gate) waive(note string) Gate {
	g.Status, g.Note = StatusWaived, note
	return g
}

// String renders g as one report line ending in PASS, FAIL or WAIVED.
func (g Gate) String() string {
	s := fmt.Sprintf("%s = %.5g %s %.5g", g.Name, g.Value, g.Op, g.Bound)
	if g.Note != "" {
		s += " (" + g.Note + ")"
	}
	return s + ": " + strings.ToUpper(g.Status)
}

// writeGates prints one line per gate, as every experiment's text report
// ends.
func writeGates(w io.Writer, gates []Gate) {
	for _, g := range gates {
		fmt.Fprintf(w, "gate: %s\n", g)
	}
}

// DecodeEnvelope reads one envelope, rejecting unknown fields and
// trailing data so a stale or hand-edited file fails loudly.
func DecodeEnvelope(r io.Reader) (*Envelope, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Envelope
	if err := dec.Decode(&e); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after the envelope")
	}
	return &e, nil
}

// readEnvelope decodes the envelope file at path.
func readEnvelope(path string) (*Envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := DecodeEnvelope(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// baselineTolerance is how far the decode experiment's macro timings may
// run above a committed baseline. Wall-clock time is noisy across runs
// and hosts, so the bound is generous; the allocation gates are the
// precise ones.
const baselineTolerance = 0.25

// baselines pairs each decode macro timing with the committed figure it
// is held against: the last recorded decode run, and the obs
// experiment's uninstrumented run, which times the identical workload.
var baselines = []struct{ metric, file, key string }{
	{"load_ms", "BENCH_decode.json", "load_ms"},
	{"count_ms", "BENCH_decode.json", "count_ms"},
	{"load_ms", "BENCH_obs.json", "base_load_ms"},
	{"count_ms", "BENCH_obs.json", "base_count_ms"},
}

// CheckGates prints one line per gate of every envelope, then the
// baseline gates that hold the decode envelope's macro timings within
// baselineTolerance of the committed envelopes in dir. It returns an
// error if any gate failed or a baseline is missing; a waived gate
// counts neither way. It writes no file.
func CheckGates(w io.Writer, dir string, envs []*Envelope) error {
	var decode *Envelope
	counts := map[string]int{}
	report := func(experiment string, g Gate) {
		counts[g.Status]++
		fmt.Fprintf(w, "%-7s %s\n", experiment, g)
	}
	for _, e := range envs {
		for _, g := range e.Gates {
			report(e.Experiment, g)
		}
		if e.Experiment == "decode" {
			decode = e
		}
	}
	for _, b := range baselines {
		name := fmt.Sprintf("%s vs %s %s +%.0f%%", b.metric, b.file, b.key, 100*baselineTolerance)
		base, err := readEnvelope(filepath.Join(dir, b.file))
		if err == nil && decode == nil {
			err = fmt.Errorf("no decode result to check")
		}
		if err == nil {
			_, okBase := base.Metrics[b.key]
			_, okNew := decode.Metrics[b.metric]
			if !okBase || !okNew {
				err = fmt.Errorf("metric %s or %s missing", b.key, b.metric)
			}
		}
		if err != nil {
			counts[StatusFail]++
			fmt.Fprintf(w, "%-7s %s: %v: FAIL\n", "decode", name, err)
			continue
		}
		report("decode", check(name, decode.Metrics[b.metric], "<=", base.Metrics[b.key]*(1+baselineTolerance)))
	}
	fmt.Fprintf(w, "gates: %d pass, %d fail, %d waived\n",
		counts[StatusPass], counts[StatusFail], counts[StatusWaived])
	if n := counts[StatusFail]; n > 0 {
		return fmt.Errorf("%d gates failed", n)
	}
	return nil
}
