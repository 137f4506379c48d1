package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateOf returns the named gate of e, failing the test if it is absent.
func gateOf(t *testing.T, e *Envelope, name string) Gate {
	t.Helper()
	for _, g := range e.Gates {
		if g.Name == name {
			return g
		}
	}
	t.Fatalf("%s envelope has no gate %q: %+v", e.Experiment, name, e.Gates)
	return Gate{}
}

// roundTrip encodes e the way avqbench records it and decodes it back
// strictly, the way the committed files are read.
func roundTrip(t *testing.T, e *Envelope) *Envelope {
	t.Helper()
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEnvelope(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("recorded envelope does not decode strictly: %v\n%s", err, raw)
	}
	return back
}

func TestCheckGates(t *testing.T) {
	decode := func(loadMs, countMs float64) *Envelope {
		e := newEnvelope("decode", nil)
		e.Metrics = map[string]float64{"load_ms": loadMs, "count_ms": countMs}
		e.Gates = []Gate{check("max_allocs_per_op", 0, "<=", 0)}
		return &e
	}
	shard := func(cpus int) *Envelope {
		e := newEnvelope("shard", nil)
		g := check("speedup/shards=4", 0.75, ">=", 2)
		if cpus < shardMinCPUs {
			g = g.waive("cpus 2 < 4")
		}
		e.Gates = []Gate{g}
		return &e
	}
	baselines := map[string]map[string]float64{
		"BENCH_decode.json": {"load_ms": 100, "count_ms": 200},
		"BENCH_obs.json":    {"base_load_ms": 100, "base_count_ms": 200},
	}
	cases := []struct {
		name    string
		envs    []*Envelope
		missing string // baseline file left out of the directory
		wantErr bool
		want    string // substring of the report
	}{
		{name: "all pass", envs: []*Envelope{decode(100, 200)}, want: "gates: 5 pass, 0 fail, 0 waived"},
		{name: "waived gate counts neither way", envs: []*Envelope{decode(100, 200), shard(2)},
			want: "speedup/shards=4 = 0.75 >= 2 (cpus 2 < 4): WAIVED"},
		{name: "failed gate", envs: []*Envelope{decode(100, 200), shard(8)}, wantErr: true,
			want: "speedup/shards=4 = 0.75 >= 2: FAIL"},
		{name: "load 25% over baseline passes", envs: []*Envelope{decode(125, 200)},
			want: "load_ms vs BENCH_decode.json load_ms +25% = 125 <= 125: PASS"},
		{name: "load 26% over baseline", envs: []*Envelope{decode(126, 200)}, wantErr: true,
			want: "load_ms vs BENCH_decode.json load_ms +25% = 126 <= 125: FAIL"},
		{name: "count 26% over obs baseline", envs: []*Envelope{decode(100, 252)}, wantErr: true,
			want: "count_ms vs BENCH_obs.json base_count_ms +25% = 252 <= 250: FAIL"},
		{name: "missing baseline file", envs: []*Envelope{decode(100, 200)}, missing: "BENCH_obs.json",
			wantErr: true, want: "BENCH_obs.json: no such file or directory: FAIL"},
		{name: "no decode result", envs: []*Envelope{shard(2)}, wantErr: true,
			want: "no decode result to check: FAIL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for file, metrics := range baselines {
				if file == tc.missing {
					continue
				}
				e := newEnvelope(strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json"), nil)
				e.Metrics = metrics
				raw, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out strings.Builder
			err := CheckGates(&out, dir, tc.envs)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v\n%s", err, tc.wantErr, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("report missing %q:\n%s", tc.want, out.String())
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := len(baselines)
			if tc.missing != "" {
				want--
			}
			if len(entries) != want {
				t.Fatalf("CheckGates changed the baseline directory: %d entries", len(entries))
			}
		})
	}
}

// TestCommittedBenchFiles holds every BENCH_*.json at the repository root
// to the envelope: it must decode strictly, name its host, and carry no
// failed gate, and every recorded status must follow from its value,
// operator and bound, so a stale or hand-edited file fails here.
func TestCommittedBenchFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		e, err := readEnvelope(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		seen[name] = true
		if e.Experiment != name {
			t.Errorf("%s: experiment %q", path, e.Experiment)
		}
		h := e.Host
		if h.CPUs <= 0 || h.GOMAXPROCS <= 0 || h.Go == "" || h.Commit == "" {
			t.Errorf("%s: host not filled: %+v", path, h)
		}
		if len(e.Workload) == 0 || len(e.Metrics) == 0 {
			t.Errorf("%s: empty workload or metrics", path)
		}
		for _, g := range e.Gates {
			switch g.Status {
			case StatusWaived:
				if g.Note == "" {
					t.Errorf("%s: gate %s waived without a note", path, g.Name)
				}
			case StatusPass:
				if re := check(g.Name, g.Value, g.Op, g.Bound); re.Status != StatusPass || g.Note != "" {
					t.Errorf("%s: gate %s recorded pass but evaluates to %s", path, g.Name, re.Status)
				}
			default:
				t.Errorf("%s: gate %s has status %q", path, g.Name, g.Status)
			}
		}
	}
	for _, name := range []string{"decode", "join", "obs", "serve", "shard", "wal"} {
		if !seen[name] {
			t.Errorf("BENCH_%s.json missing from the repository root", name)
		}
	}
}
