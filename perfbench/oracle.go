package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expected is the recorded output oracle (expected.json). dhfr-512 is
// keyed by the chemistry seed, paper-quick by report name; serve-churn
// needs no recording because every body is checked against a fresh
// harness run of its digest.
type expected struct {
	DHFR  map[string][]stepRecord `json:"dhfr-512"`
	Paper map[string]string       `json:"paper-quick"`
}

// stepRecord is one DHFR step's simulated outcome: its StepTiming in
// picoseconds plus the cumulative kernel event and machine packet counts
// after it.
type stepRecord struct {
	Kind      string `json:"kind"`
	TotalPs   int64  `json:"total_ps"`
	ComputePs int64  `json:"compute_ps"`
	CommPs    int64  `json:"comm_ps"`
	FFTPs     int64  `json:"fft_ps"`
	ThermoPs  int64  `json:"thermo_ps"`
	MigrPs    int64  `json:"migr_ps"`
	Events    uint64 `json:"events"`
	Packets   int64  `json:"packets"`
}

func loadExpected(path string) (*expected, error) {
	ex := &expected{DHFR: map[string][]stepRecord{}, Paper: map[string]string{}}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, ex); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return ex, nil
}

func (ex *expected) save(path string) error {
	b, err := json.MarshalIndent(ex, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// dhfrKey names a chemistry seed in the oracle.
func dhfrKey(chem int64) string { return strconv.FormatInt(chem, 10) }
