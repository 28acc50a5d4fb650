package main

import "testing"

func TestSpeedMeterScale(t *testing.T) {
	// Reference times of 36, 90 (a sample the host interrupted) and 30
	// ms: the median, 36, is twice the nominal 18, so a time measured
	// beside them halves at reference speed.
	m := speedMeter{refs: []float64{36, 90, 30}}
	if got := m.scale(); got != 0.5 {
		t.Fatalf("scale = %v, want 0.5", got)
	}
}

func TestRefIsFixedWork(t *testing.T) {
	in := refData()
	if a, b := refWork(in, 0), refWork(in, 0); a != b {
		t.Fatalf("the reference computed %v, then %v", a, b)
	}
	var m speedMeter
	for i := 0; i < 3; i++ {
		m.sample()
	}
	if len(m.refs) != 3 || m.scale() <= 0 {
		t.Fatalf("three samples gave %v (scale %v)", m.refs, m.scale())
	}
}
