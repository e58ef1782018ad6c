package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// Metric is one named measurement in the benchmark's output.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is what the helper programs (cmd/inproc, cmd/replay) print as
// the last line of their output for the benchmark to merge.
type Report struct {
	Metrics  map[string]Metric `json:"metrics"`
	Failures []string          `json:"failures"`
	Info     map[string]any    `json:"info,omitempty"`
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{Metrics: map[string]Metric{}, Info: map[string]any{}}
}

// Set records a metric.
func (r *Report) Set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// Failf records a failed output check.
func (r *Report) Failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Print writes the report as one JSON line on stdout.
func (r *Report) Print() error {
	return json.NewEncoder(os.Stdout).Encode(r)
}
