package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs one tiny-mode benchmark and decodes its last line.
func runTiny(t *testing.T, workload, seed string, trace bool) result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0", "--tiny", "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line: %v", args, err)
	}
	return res
}

// TestTinyWorkloadsEmitDeclaredMetrics runs every declared workload in
// tiny mode, untraced and traced, and checks that exactly the declared
// metrics come out with their units, that every output verified, and
// that the end-to-end metrics are never zero.
func TestTinyWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(specs))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w.Name, "7", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// exact reports whether a per-layer metric is a modelled number or a
// count, which must repeat bit-exactly.
func exact(name string) bool {
	for _, p := range []string{"sim_cycles", "fabric.", "mem.", "cp.", "core.calls.", "xbrtime.", "gups."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// TestSameSeedRepeatsExactly holds two traced runs with one seed to
// identical modelled numbers, critical paths and counts.
func TestSameSeedRepeatsExactly(t *testing.T) {
	for _, sp := range specs {
		a := runTiny(t, sp.name, "3", true)
		b := runTiny(t, sp.name, "3", true)
		for name, m := range a.Metrics {
			if exact(name) && b.Metrics[name] != m {
				t.Errorf("%s: %s = %v then %v", sp.name, name, m.Value, b.Metrics[name].Value)
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, sp := range specs {
		if err := seedCheck(sp, options{seed: 11, tiny: true}); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
	}
}

func TestCPUModule(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "xbgas/internal/mem.(*Memory).WriteBytes"}, "memmove"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, "sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mapaccess2_fast64", "xbgas/internal/mem.(*TLB).Lookup"}, "mem"},
		{[]string{"xbgas/internal/xbrtime.(*lockstep).chosen", "xbgas/internal/xbrtime.(*lockstep).waitTurn"}, "lockstep"},
		{[]string{"xbgas/internal/xbrtime.(*PE).lsYield"}, "lockstep"},
		{[]string{"xbgas/internal/xbrtime.(*PE).GetNB"}, "xbrtime"},
		{[]string{"xbgas/internal/core.chooseAuto", "xbgas/internal/core.resolveAlgorithm"}, "core.select"},
		{[]string{"xbgas/internal/core.arith[...]", "xbgas/internal/core.(*execEnv).combineChunk"}, "core.combine"},
		{[]string{"xbgas/internal/core.(*execEnv).step"}, "core.exec"},
		{[]string{"main.(*collWork).checkCall"}, "bench"},
	}
	for _, c := range cases {
		if got := cpuModule(c.stack); got != c.want {
			t.Errorf("cpuModule(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
