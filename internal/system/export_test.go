package system

// Helpers that only this package's tests use.

// DegradationCurve returns effective throughput as arrays fail one by one,
// from all alive down to the serviceability limit.
func DegradationCurve(t Throughput, cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tolerated := int(cfg.SpareFraction * float64(cfg.Arrays))
	out := make([]float64, tolerated+1)
	for failed := 0; failed <= tolerated; failed++ {
		out[failed] = t.Effective(cfg.Arrays - failed)
	}
	return out, nil
}

// Effective returns chip throughput with the given number of surviving
// arrays.
func (t Throughput) Effective(surviving int) float64 {
	if surviving <= 0 {
		return 0
	}
	return float64(surviving) * t.OpsPerArrayPerSecond * (1 - t.CommOverhead)
}
