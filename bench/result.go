package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp identifies the machine and build a result came from. Results whose
// machine fields differ are not comparable; Commit is informational.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// commit is set by run.sh at link time.
var commit = "unknown"

func machineStamp() stamp {
	s := stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     "unknown",
		Commit:     commit,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// sameMachine reports the first machine field on which two stamps differ.
func (s stamp) sameMachine(o stamp) (field string, ok bool) {
	switch {
	case s.GoVersion != o.GoVersion:
		return "go_version", false
	case s.GOMAXPROCS != o.GOMAXPROCS:
		return "gomaxprocs", false
	case s.NProc != o.NProc:
		return "nproc", false
	case s.CPUModel != o.CPUModel:
		return "cpu_model", false
	case s.Kernel != o.Kernel:
		return "kernel", false
	}
	return "", true
}

// workloadResult is one workload's numbers in a result file.
type workloadResult struct {
	Workload   string          `json:"workload"`
	Correct    bool            `json:"correct"`
	Attempted  int64           `json:"attempted"`
	Failed     int64           `json:"failed"`
	Violations []string        `json:"violations,omitempty"`
	EndToEnd   map[string]stat `json:"end_to_end,omitempty"`
	PerLayer   map[string]stat `json:"per_layer,omitempty"`
}

// fill copies a measurement's counts and output-check outcome into wr.
func (wr *workloadResult) fill(m *measurement) {
	wr.Correct, wr.Attempted, wr.Failed, wr.Violations = m.correct(), m.attempted, m.failed, m.violations
}

// result is the file a run leaves behind and -compare reads.
type result struct {
	Stamp     stamp            `json:"stamp"`
	Seed      uint64           `json:"seed"`
	WindowS   float64          `json:"window_s"`
	Workloads []workloadResult `json:"workloads"`
}

// stats picks defs' metrics out of a measurement. One it has no samples for
// (a layer the workload's plant cannot observe) is reported as a zero stat.
func stats(m *measurement, defs []metricDef) map[string]stat {
	out := map[string]stat{}
	for _, d := range defs {
		out[d.Name] = newStat(d.Unit, m.samples[d.Name])
	}
	return out
}

// measured is stats without the zero stats: only what m has samples for.
func measured(m *measurement, defs []metricDef) map[string]stat {
	out := map[string]stat{}
	for _, d := range defs {
		if samples := m.samples[d.Name]; len(samples) > 0 {
			out[d.Name] = newStat(d.Unit, samples)
		}
	}
	return out
}

func writeResult(dir, name string, r result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseResult decodes a result file and rejects one -compare could not use.
func parseResult(data []byte) (result, error) {
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return result{}, fmt.Errorf("not a result file: %w", err)
	}
	if r.Stamp.GoVersion == "" || r.Stamp.CPUModel == "" {
		return result{}, fmt.Errorf("result has no machine stamp")
	}
	if len(r.Workloads) == 0 {
		return result{}, fmt.Errorf("result has no workloads")
	}
	seen := map[string]bool{}
	for _, w := range r.Workloads {
		if w.Workload == "" || seen[w.Workload] {
			return result{}, fmt.Errorf("workload name %q empty or repeated", w.Workload)
		}
		seen[w.Workload] = true
		for name, s := range w.EndToEnd {
			if s.N < 1 || s.Min > s.Median || s.Median > s.Max {
				return result{}, fmt.Errorf("%s %s: want n >= 1 and min <= median <= max, got %+v", w.Workload, name, s)
			}
		}
	}
	return r, nil
}

func loadResult(path string) (result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	r, err := parseResult(data)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
