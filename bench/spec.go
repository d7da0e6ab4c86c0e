//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// spec is BENCHMARK.json: the one registry of workload and metric names,
// units, directions and regression bounds. The program reads it at start
// and refuses to emit a metric it does not name, so the file and the code
// cannot drift apart.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: %s name %q is not [A-Za-z0-9_.-]{1,64}", path, kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q is used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better = %q", path, m.Name, m.Better)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %s has no bound", path, m.Name)
		}
	}
	return &s, nil
}

func (s *spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// value is one emitted metric, as the result line and result file carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one workload run's metrics by name. Units come from
// the spec at emit time, never from the call site.
type metricSet struct {
	vals map[string]float64
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]float64{}} }

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

// emit resolves the collected values against the declared list: every
// end-to-end metric must have been set; a per-layer metric the workload
// did not exercise reads 0 (the rule README.md states); a name the spec
// does not declare is a bug in the harness.
func (m *metricSet) emit(declared []metricSpec, mustSet bool) (map[string]value, error) {
	byName := map[string]metricSpec{}
	for _, d := range declared {
		byName[d.Name] = d
	}
	var unknown []string
	for name := range m.vals {
		if _, ok := byName[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics %v are not declared in BENCHMARK.json", unknown)
	}
	out := make(map[string]value, len(declared))
	for _, d := range declared {
		v, ok := m.vals[d.Name]
		if !ok && mustSet {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}
