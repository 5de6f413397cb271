package experiments

import (
	"encoding/json"
	"os"
)

// Machine-readable experiment output. A report carries the full
// configuration next to the measured series (per-step storage/traffic,
// per-level probe and RPC counts, wall-clock build and per-query
// timings), so successive runs are directly comparable without
// re-deriving the setup from flags.

// BenchReport is the JSON shape of one sweep.
type BenchReport struct {
	Scale Scale  `json:"scale"`
	Steps []Step `json:"steps,omitempty"`
}

// BenchJSON extracts the serializable portion of sweep results (the
// collection itself stays out — it is gigabytes at paper scale and fully
// reproducible from Scale's generator parameters).
func BenchJSON(res *Results) *BenchReport {
	return &BenchReport{Scale: res.Scale, Steps: res.Steps}
}

// WriteJSON writes any report as indented JSON to path.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
