package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// A probe is a main package of its own under layers/<layer>/ that times
// one layer's operations and prints a ProbeOutput as its last line. The
// driver builds and runs each one as a subprocess, so a probe whose layer
// a later change deleted fails to build on its own: its metrics are then
// absent, and neither the driver nor the other probes are affected.

// ProbeOutput is what a probe prints: its metrics, and the spans it
// recorded if it traces a sequence of calls.
type ProbeOutput struct {
	Metrics Metrics `json:"metrics"`
	Spans   []Span  `json:"spans,omitempty"`
}

// Emit prints the output as the probe's last line.
func (p ProbeOutput) Emit() {
	b, err := json.Marshal(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// Fatal ends a probe whose own set-up failed.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "probe:", err)
	os.Exit(1)
}

// MinPerOp runs f, which performs iters operations, batches times and
// reports the cheapest batch's cost of one operation in nanoseconds. The
// operations are fixed work, so the minimum is the estimate least touched
// by the host.
func MinPerOp(batches, iters int, f func()) float64 {
	best := time.Duration(-1)
	for b := 0; b < batches; b++ {
		t := time.Now()
		f()
		if d := time.Since(t); best < 0 || d < best {
			best = d
		}
	}
	return float64(best) / float64(iters)
}

// ErrProbeBuild marks a probe that did not compile.
var ErrProbeBuild = errors.New("probe does not build")

// RunProbe builds the main package pkg (a path relative to moduleDir, such
// as ./layers/router) into binDir and runs it with args. A compile failure
// is reported as ErrProbeBuild.
func RunProbe(moduleDir, pkg, binDir string, args ...string) (ProbeOutput, error) {
	bin := filepath.Join(binDir, "probe-"+filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Dir = moduleDir
	if out, err := build.CombinedOutput(); err != nil {
		return ProbeOutput{}, fmt.Errorf("%w: %s: %s", ErrProbeBuild, pkg, firstLines(string(out), 3))
	}
	run := exec.Command(bin, args...)
	run.Dir = moduleDir
	run.Stderr = os.Stderr
	out, err := run.Output()
	if err != nil {
		return ProbeOutput{}, fmt.Errorf("probe %s: %w", pkg, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var p ProbeOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		return ProbeOutput{}, fmt.Errorf("probe %s: last line is not a probe output: %w", pkg, err)
	}
	return p, nil
}

func firstLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, " | ")
}
