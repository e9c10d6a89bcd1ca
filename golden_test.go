package stbusgen_test

import (
	"reflect"
	"testing"

	checkpkg "repro/internal/check"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// goldenDesign pins the exact output of the default design pipeline on
// one paper benchmark: bus counts, per-receiver bus bindings, and the
// binding objective for both directions.
type goldenDesign struct {
	reqBuses   int
	reqBusOf   []int
	reqOverlap int64

	respBuses   int
	respBusOf   []int
	respOverlap int64
}

// golden holds the designs produced at the time the warm-started MILP
// engine landed, captured with the default options and the published
// workload seed. The solver rework must not move any of these: a
// changed binding here means the search is
// no longer deterministic — or no longer optimal — and is a regression
// even if every other test passes.
var golden = map[string]goldenDesign{
	"Mat1": {
		reqBuses: 4, reqBusOf: []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 1}, reqOverlap: 55,
		respBuses: 4, respBusOf: []int{0, 0, 1, 1, 1, 2, 3, 2, 3, 2, 3}, respOverlap: 156,
	},
	"Mat2": {
		reqBuses: 3, reqBusOf: []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2}, reqOverlap: 269,
		respBuses: 3, respBusOf: []int{2, 0, 0, 1, 1, 1, 0, 2, 2}, respOverlap: 1818,
	},
	"FFT": {
		reqBuses: 7, reqBusOf: []int{0, 4, 5, 6, 1, 3, 2, 3, 5, 4, 1, 0, 2, 0, 2, 0}, reqOverlap: 2971,
		respBuses: 7, respBusOf: []int{6, 0, 5, 1, 3, 2, 4, 2, 6, 4, 5, 3, 0}, respOverlap: 2427,
	},
	"QSort": {
		reqBuses: 3, reqBusOf: []int{0, 0, 1, 1, 2, 2, 0, 1, 2}, reqOverlap: 75,
		respBuses: 3, respBusOf: []int{1, 0, 2, 1, 0, 2}, respOverlap: 141,
	},
	"DES": {
		reqBuses: 3, reqBusOf: []int{1, 2, 0, 1, 0, 2, 1, 2, 0, 1, 0}, reqOverlap: 1813,
		respBuses: 3, respBusOf: []int{1, 0, 0, 1, 1, 2, 2, 0}, respOverlap: 17812,
	},
}

// TestGoldenDesigns regenerates every paper benchmark's design with
// the default options and compares it field by field against the
// pinned golden values.
func TestGoldenDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full golden-design regeneration in -short mode")
	}
	for _, app := range workloads.All(experiments.Seed) {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[app.Name]
			if !ok {
				t.Fatalf("no golden design recorded for %s", app.Name)
			}
			run, err := experiments.Prepare(app)
			if err != nil {
				t.Fatal(err)
			}
			pair, err := run.Design(core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			check := func(dir string, d *core.Design, buses int, busOf []int, overlap int64) {
				if d.NumBuses != buses {
					t.Errorf("%s: %d buses, golden %d", dir, d.NumBuses, buses)
				}
				if !reflect.DeepEqual(d.BusOf, busOf) {
					t.Errorf("%s: binding %v, golden %v", dir, d.BusOf, busOf)
				}
				if d.MaxBusOverlap != overlap {
					t.Errorf("%s: max bus overlap %d, golden %d", dir, d.MaxBusOverlap, overlap)
				}
			}
			check("request", pair.Req, want.reqBuses, want.reqBusOf, want.reqOverlap)
			check("response", pair.Resp, want.respBuses, want.respBusOf, want.respOverlap)

			// Beyond bit-identity to the pinned values, every golden
			// design must satisfy the paper constraints as recomputed by
			// the independent auditor.
			opts := core.DefaultOptions()
			if rep := checkpkg.Audit(pair.Req, run.AReq, opts); !rep.OK() {
				t.Errorf("request design fails audit: %v", rep.Err())
			}
			if rep := checkpkg.Audit(pair.Resp, run.AResp, opts); !rep.OK() {
				t.Errorf("response design fails audit: %v", rep.Err())
			}
		})
	}
}
