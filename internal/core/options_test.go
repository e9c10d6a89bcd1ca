package core

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestOptionsValidate exercises every rejection branch of the single
// option validator the facade entry points share.
func TestOptionsValidate(t *testing.T) {
	base := DefaultOptions()
	if err := base.Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"nan threshold", func(o *Options) { o.OverlapThreshold = math.NaN() }},
		{"threshold above one", func(o *Options) { o.OverlapThreshold = 1.5 }},
		{"negative max per bus", func(o *Options) { o.MaxPerBus = -1 }},
		{"negative min buses", func(o *Options) { o.MinBuses = -2 }},
		{"negative max buses", func(o *Options) { o.MaxBuses = -1 }},
		{"min above max buses", func(o *Options) { o.MinBuses = 5; o.MaxBuses = 3 }},
		{"negative node budget", func(o *Options) { o.MaxNodes = -7 }},
	}
	for _, tc := range cases {
		opts := base
		tc.mutate(&opts)
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, opts)
		}
	}

	// The permissive zero values stay valid: disabled threshold,
	// unbounded buses, default budgets.
	loose := Options{OverlapThreshold: -1}
	if err := loose.Validate(); err != nil {
		t.Errorf("permissive options rejected: %v", err)
	}
}

// TestDesignRejectsInvalidOptions pins that the design entry point
// runs the validator rather than a partial ad-hoc check.
func TestDesignRejectsInvalidOptions(t *testing.T) {
	a := mkAnalysis(t, 2, 100, 100, []trace.Event{
		{Start: 0, Len: 10, Receiver: 0},
		{Start: 5, Len: 10, Receiver: 1},
	})
	for _, opts := range []Options{
		{OverlapThreshold: math.NaN()},
		{OverlapThreshold: -1, MaxPerBus: -1},
		{OverlapThreshold: -1, MaxNodes: -1},
	} {
		if _, err := DesignCrossbar(a, opts); err == nil {
			t.Errorf("design accepted invalid options %+v", opts)
		}
	}
}
