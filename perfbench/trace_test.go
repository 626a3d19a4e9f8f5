package main

import (
	"math"
	"testing"
)

func TestReportSelfTimeAndCoverage(t *testing.T) {
	const ms = int64(1e6)
	spans := []span{
		// A 10ms server call whose first 4ms and (overlapping) 3–6ms are
		// spent in rrset: rrset covers 6ms of it, leaving 4ms server self.
		{ID: 1, Name: "server.advance", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "rrset.generate", Start: 0, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "rrset.index", Start: 3 * ms, End: 6 * ms},
		// A second root span, 15–20ms.
		{ID: 4, Name: "server.status", Start: 15 * ms, End: 20 * ms},
	}
	rep := reportSpans(spans, 0, 40*ms)
	want := map[string]float64{"server": 4 + 5, "rrset": 4 + 3}
	for layer, w := range want {
		if got := rep.SelfMs[layer]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", layer, got, w)
		}
	}
	if math.Abs(rep.Coverage-15.0/40) > 1e-9 {
		t.Errorf("coverage = %v, want the root spans' 15ms of 40ms", rep.Coverage)
	}
}
