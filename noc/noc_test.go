package noc

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func smallCfg(policy string) Config {
	c := DefaultConfig()
	c.MeshSize = 4
	c.Policy = policy
	return c
}

func TestDefaultConfigValid(t *testing.T) {
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	c := DefaultConfig()
	c.Policy = "bogus"
	if _, err := New(c); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	n, err := New(smallCfg(PolicyHistory))
	if err != nil {
		t.Fatal(err)
	}
	if n.Nodes() != 16 {
		t.Fatalf("nodes = %d, want 16", n.Nodes())
	}
	err = n.AttachTwoLevel(TwoLevelWorkload{
		Rate: 0.3, Tasks: 20, TaskDuration: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Warmup(30_000)
	r := n.Measure(60_000)
	if r.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
	if r.MeanLatencyCycles <= 0 {
		t.Error("no latency recorded")
	}
	if r.PowerSavingsX <= 1 {
		t.Errorf("savings = %.2f, want > 1 under DVS", r.PowerSavingsX)
	}
	if r.ThroughputPkts <= 0 {
		t.Error("no throughput")
	}
}

func TestUniformAndPermutationAttach(t *testing.T) {
	n, _ := New(smallCfg(PolicyNone))
	n.AttachUniform(0.01)
	r := n.Measure(10_000)
	if r.DeliveredPackets == 0 {
		t.Error("uniform: nothing delivered")
	}
	m, _ := New(smallCfg(PolicyNone))
	m.AttachTranspose(0.01)
	r2 := m.Measure(10_000)
	if r2.DeliveredPackets == 0 {
		t.Error("transpose: nothing delivered")
	}
}

// Every workload refuses a rate it cannot run at with an error, before it
// arms anything, instead of hanging or panicking inside the scheduler.
func TestAttachRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{0, -0.1, 1.5, 1e300, math.NaN(), math.Inf(1)} {
		for name, attach := range map[string]func(*Network) error{
			"uniform":   func(n *Network) error { return n.AttachUniform(rate) },
			"transpose": func(n *Network) error { return n.AttachTranspose(rate) },
			"hotspot":   func(n *Network) error { return n.AttachHotspot(rate, 5, 0.25) },
		} {
			n, err := New(smallCfg(PolicyNone))
			if err != nil {
				t.Fatal(err)
			}
			if attach(n) == nil {
				t.Errorf("%s accepted rate %g", name, rate)
			}
		}
	}
	cfg := smallCfg(PolicyNone) // 16 nodes
	for _, rate := range []float64{0, 17, 1e300, math.NaN(), math.Inf(1)} {
		w := TwoLevelWorkload{Rate: rate, Tasks: 20, TaskDuration: time.Microsecond}
		if w.Validate(cfg) == nil {
			t.Errorf("two-level rate %g validated", rate)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n.AttachTwoLevel(w) == nil {
			t.Errorf("AttachTwoLevel accepted rate %g", rate)
		}
	}
	if err := (TwoLevelWorkload{Rate: 16, Tasks: 20, TaskDuration: time.Microsecond}).Validate(cfg); err != nil {
		t.Errorf("two-level rate 16 on 16 nodes: %v", err)
	}
}

func TestManualInjection(t *testing.T) {
	n, _ := New(smallCfg(PolicyNone))
	n.Inject(0, 15)
	r := n.Measure(300)
	if r.DeliveredPackets != 1 {
		t.Fatalf("delivered %d, want 1", r.DeliveredPackets)
	}
	if n.InFlight() != 0 {
		t.Error("packet still in flight")
	}
}

func TestLevelHistogram(t *testing.T) {
	n, _ := New(smallCfg(PolicyNone))
	h := n.LevelHistogram()
	if len(h) != 10 {
		t.Fatalf("levels = %d, want 10", len(h))
	}
	// Without DVS all 48 links sit at the top level.
	if h[9] != 48 {
		t.Errorf("top-level links = %d, want 48", h[9])
	}
}

func TestExperimentsRegistry(t *testing.T) {
	list := Experiments()
	if len(list) < 15 {
		t.Fatalf("only %d experiments registered", len(list))
	}
	joined := strings.Join(list, "\n")
	for _, id := range []string{"fig3", "fig10", "fig15", "fig16", "tab1", "headline", "abl-litmus"} {
		if !strings.Contains(joined, id) {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestRunExperimentTab1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("tab1", ExperimentOptions{Quick: true}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "0.3", "0.7", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 output missing %q:\n%s", want, out)
		}
	}
	if err := RunExperiment("nope", ExperimentOptions{}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunExperimentsParallelFacade: the concurrent multi-experiment entry
// returns per-id output identical to one-at-a-time RunExperiment calls, in
// input order, at an explicit parallelism bound.
func TestRunExperimentsParallelFacade(t *testing.T) {
	SetExperimentParallelism(4)
	defer SetExperimentParallelism(0)
	ids := []string{"tab1", "fig7", "tab2"}
	o := ExperimentOptions{Quick: true}
	got, err := RunExperiments(ids, o, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("got %d outputs for %d ids", len(got), len(ids))
	}
	for i, id := range ids {
		var buf bytes.Buffer
		if err := RunExperiment(id, o, &buf); err != nil {
			t.Fatal(err)
		}
		if got[i] != buf.String() {
			t.Errorf("RunExperiments[%d] (%s) differs from RunExperiment", i, id)
		}
	}
	if _, err := RunExperiments([]string{"nope"}, o, false); err == nil {
		t.Error("unknown experiment accepted")
	}
	// CSV mode renders CSV.
	csv, err := RunExperiments([]string{"tab1"}, o, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv[0], "# Table 1") {
		t.Errorf("CSV output missing comment title:\n%s", csv[0])
	}
}

func TestTracing(t *testing.T) {
	n, _ := New(smallCfg(PolicyNone))
	if err := n.DumpTrace(nil, ""); err == nil {
		t.Error("DumpTrace without EnableTrace should fail")
	}
	n.EnableTrace(100)
	n.Inject(0, 15)
	n.Measure(300)
	var buf bytes.Buffer
	if err := n.DumpTrace(&buf, "deliver"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deliver") {
		t.Errorf("trace missing delivery:\n%s", buf.String())
	}
	if err := n.DumpTrace(&buf, "bogus"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestConfigSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cfg.json"
	orig := DefaultConfig()
	orig.MeshSize = 4
	orig.TLLow, orig.TLHigh = 0.25, 0.35
	orig.Policy = PolicyAdaptiveThresholds
	if err := SaveConfig(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip changed config:\n%+v\n%+v", orig, got)
	}
}

func TestLoadConfigPartialUsesDefaults(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/partial.json"
	if err := os.WriteFile(path, []byte(`{"MeshSize": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeshSize != 4 {
		t.Errorf("MeshSize = %d, want 4", got.MeshSize)
	}
	def := DefaultConfig()
	if got.H != def.H || got.Policy != def.Policy {
		t.Error("unset fields did not keep defaults")
	}
}

func TestLoadConfigRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"Policy": "bogus"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Error("invalid policy accepted")
	}
	garbled := dir + "/garbled.json"
	os.WriteFile(garbled, []byte(`{not json`), 0o644)
	if _, err := LoadConfig(garbled); err == nil {
		t.Error("garbled JSON accepted")
	}
	if _, err := LoadConfig(dir + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadConfigRejectsUnknownKeys: a misspelt key, or one a later build
// removed, is an error naming the key rather than a silent default.
func TestLoadConfigRejectsUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	for _, key := range []string{"MeshSzie", "NoSkip", "VerifyLookahead"} {
		path := dir + "/" + key + ".json"
		if err := os.WriteFile(path, []byte(`{"`+key+`": 4}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("{%q: 4}: err = %v, want one naming the key", key, err)
		}
	}
	trailing := dir + "/trailing.json"
	if err := os.WriteFile(trailing, []byte(`{"MeshSize": 4} {}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(trailing); err == nil {
		t.Error("trailing data accepted")
	}
}

// TestUnroutablePlatformsAreErrors: platforms the routing algorithms cannot
// serve (they used to pass validation and panic on the first routed packet)
// come back as errors from both New and LoadConfig.
func TestUnroutablePlatformsAreErrors(t *testing.T) {
	dir := t.TempDir()
	for name, mutate := range map[string]func(*Config){
		"adaptive-torus": func(c *Config) { c.Routing, c.Torus = "adaptive", true },
		"adaptive-1vc":   func(c *Config) { c.Routing, c.VCs = "adaptive", 1 },
		"torus-1vc":      func(c *Config) { c.Torus, c.VCs = true, 1 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
		path := dir + "/" + name + ".json"
		if err := SaveConfig(path, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil {
			t.Errorf("%s: LoadConfig accepted the config", name)
		}
	}
}

// TestLoadConfigRejectsOversized: sizes that pass every shape check but
// that no machine can build — 2^40 routers, 10^12 buffers per port — are
// errors from LoadConfig, at once, not an allocation attempt (the first
// used to be killed by a timeout).
func TestLoadConfigRejectsOversized(t *testing.T) {
	dir := t.TempDir()
	for name, js := range map[string]string{
		"mesh-2^40": `{"MeshSize": 1048576}`,
		"cube-3^15": `{"MeshSize": 3, "Dims": 15}`,
		"buffers":   `{"BufPerPort": 1000000000000}`,
		"pipeline":  `{"PipelineDepth": 1000000000}`,
	} {
		path := dir + "/" + name + ".json"
		if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := LoadConfig(path); err == nil {
			t.Errorf("%s: LoadConfig accepted %s", name, js)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: LoadConfig took %v to refuse", name, d)
		}
	}
}

func TestPatternAttachments(t *testing.T) {
	for _, attach := range []struct {
		name string
		do   func(n *Network)
	}{
		{"bitreverse", func(n *Network) { n.AttachBitReverse(0.01) }},
		{"shuffle", func(n *Network) { n.AttachShuffle(0.01) }},
		{"tornado", func(n *Network) { n.AttachTornado(0.01) }},
		{"hotspot", func(n *Network) { n.AttachHotspot(0.01, 5, 0.25) }},
	} {
		n, err := New(smallCfg(PolicyNone))
		if err != nil {
			t.Fatal(err)
		}
		attach.do(n)
		r := n.Measure(10_000)
		if r.DeliveredPackets == 0 {
			t.Errorf("%s: nothing delivered", attach.name)
		}
	}
}
