package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps a metric name to its reading.
type Metrics map[string]Metric

// Set records a reading; it panics on a name outside the charset, which
// only a typo in the benchmark's own source can cause.
func (m Metrics) Set(name string, value float64, unit string) {
	if !ValidName(name) {
		panic("harness: invalid metric name " + name)
	}
	m[name] = Metric{Value: value, Unit: unit}
}

// Names returns the metric names in sorted order.
func (m Metrics) Names() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ValidName reports whether a metric or workload name starts with a letter
// or digit and is made of at most 64 of [A-Za-z0-9_.-].
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '_' || c == '.' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// Result is the last line a run prints: whether every check passed, the
// operations attempted and failed, and the metrics of the mode it ran in.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// Line renders the result as one line of JSON.
func (r Result) Line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // floats are checked finite before they get here
	}
	return string(b)
}

// ParseLastLine decodes the last non-empty line of a run's standard output.
func ParseLastLine(out []byte) (Result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	if last == "" {
		return Result{}, errors.New("no output")
	}
	var r Result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}
