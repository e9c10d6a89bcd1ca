// Command flightview inspects a solver flight recording written by the
// shared -flight-out flag (see internal/cli and internal/obs): the
// NDJSON journal of typed solver events — probes opened and closed,
// incumbents found, node-expansion batches and cache traffic.
//
// The default mode prints a summary: per-kind event counts, a probe
// table (bus count, phase, outcome, duration, nodes), the incumbent
// staircase, search node throughput and cache traffic. Older
// recordings may also hold the retired LP-pivot and race kinds: they
// are counted and replayed, and have no section of their own.
// -replay dumps every retained event in emission order; -canon reduces
// the recording to its schedule-invariant canonical form (the shape the
// golden tests diff between runs) and re-emits it as NDJSON.
//
// Usage:
//
//	xbargen -trace mat2.req.trc -flight-out run.flight ...
//	flightview -in run.flight
//	flightview -in run.flight -replay
//	flightview -in a.flight -canon > a.canon
//	flightview -in b.flight -canon > b.canon && diff a.canon b.canon
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
)

var (
	inPath = flag.String("in", "", "flight recording to read (NDJSON, written by -flight-out)")
	replay = flag.Bool("replay", false, "dump every retained event in emission order")
	canon  = flag.Bool("canon", false, "emit the schedule-invariant canonical reduction as NDJSON")
)

func main() { cli.Main("flightview", run) }

func run(ctx context.Context) error {
	if *inPath == "" {
		return errors.New("missing -in")
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	events, meta, err := obs.ReadNDJSON(f)
	if err != nil {
		return err
	}
	switch {
	case *canon:
		return writeCanon(events, meta)
	case *replay:
		return writeReplay(events)
	default:
		return writeSummary(events, meta)
	}
}

// writeCanon re-emits the canonical reduction as NDJSON, so two
// recordings of the same problem diff clean.
func writeCanon(events []obs.Event, meta obs.FlightMeta) error {
	reduced := obs.Canonical(events)
	return obs.WriteEventsNDJSON(os.Stdout,
		obs.FlightMeta{Flight: 1, Emitted: int64(len(reduced))}, reduced)
}

func writeReplay(events []obs.Event) error {
	for _, e := range events {
		fmt.Printf("%8d  %12s  %-12s", e.Seq, time.Duration(e.T).Round(time.Microsecond), e.Kind)
		if e.K != 0 {
			fmt.Printf("  k=%d", e.K)
		}
		if e.Val != 0 {
			fmt.Printf("  val=%d", e.Val)
		}
		if e.Aux != 0 {
			fmt.Printf("  aux=%d", e.Aux)
		}
		if e.Who != "" {
			fmt.Printf("  who=%s", e.Who)
		}
		if e.Str != "" {
			fmt.Printf("  str=%q", e.Str)
		}
		if e.Flag {
			fmt.Printf("  flag")
		}
		fmt.Println()
	}
	return nil
}

// probeKey pairs the logical identity of a probe: its bus count and
// phase. Re-probes of the same count in the same phase (cache warm
// re-solves) are matched open-to-close in order.
type probeKey struct {
	k        int
	optimize bool
}

func writeSummary(events []obs.Event, meta obs.FlightMeta) error {
	fmt.Printf("recording: %d events retained, %d emitted, %d overwritten\n",
		len(events), meta.Emitted, meta.Dropped)
	if len(events) == 0 {
		return nil
	}
	fmt.Printf("span: %s\n", time.Duration(events[len(events)-1].T-events[0].T).Round(time.Microsecond))

	// Per-kind counts.
	counts := map[obs.EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	fmt.Println("\nevent counts:")
	for k := obs.EventKind(0); ; k++ {
		name := k.String()
		if _, ok := obs.ParseEventKind(name); !ok {
			break
		}
		if counts[k] > 0 {
			fmt.Printf("  %-14s %d\n", name, counts[k])
		}
	}

	// Design runs.
	for _, e := range events {
		switch e.Kind {
		case obs.EvDesignStart:
			fmt.Printf("\ndesign start: %d receivers\n", e.Val)
		case obs.EvDesignDone:
			fmt.Printf("design done: %d buses, objective %d, %d nodes%s\n",
				e.K, e.Val, e.Aux, cappedSuffix(e.Flag))
		case obs.EvCacheHit:
			fmt.Printf("cache: exact %s hit (%d buses)\n", e.Who, e.K)
		case obs.EvCacheWarm:
			fmt.Printf("cache: warm incumbent (%d buses, %d diff cells)\n", e.K, e.Val)
		case obs.EvCacheStore:
			fmt.Printf("cache: stored design (%d buses)\n", e.K)
		case obs.EvPanic:
			fmt.Printf("panic: job failed, recovered by %s\n", e.Who)
		}
	}

	// Probe table: opens matched to closes in order per (k, phase).
	pending := map[probeKey][]obs.Event{}
	type probeRow struct {
		open, close obs.Event
		matched     bool
	}
	var rows []probeRow
	for _, e := range events {
		switch e.Kind {
		case obs.EvProbeOpen:
			pk := probeKey{e.K, e.Flag}
			pending[pk] = append(pending[pk], e)
		case obs.EvProbeClose:
			pk := probeKey{e.K, e.Flag}
			if q := pending[pk]; len(q) > 0 {
				rows = append(rows, probeRow{open: q[0], close: e, matched: true})
				pending[pk] = q[1:]
			} else {
				rows = append(rows, probeRow{close: e})
			}
		}
	}
	if len(rows) > 0 {
		fmt.Println("\nprobes:")
		fmt.Printf("  %4s  %-8s  %-10s  %12s  %12s  %10s\n", "k", "phase", "outcome", "duration", "objective", "nodes")
		for _, r := range rows {
			phase := "feasible?"
			if r.close.Flag {
				phase = "optimize"
			}
			dur := "-"
			if r.matched {
				dur = time.Duration(r.close.T - r.open.T).Round(time.Microsecond).String()
			}
			obj := "-"
			if r.close.Who == "feasible" || r.close.Who == "capped" {
				obj = fmt.Sprint(r.close.Val)
			}
			fmt.Printf("  %4d  %-8s  %-10s  %12s  %12s  %10d\n",
				r.close.K, phase, r.close.Who, dur, obj, r.close.Aux)
		}
	}

	// Incumbent staircase: every improvement, in emission order.
	var haveInc bool
	for _, e := range events {
		if e.Kind != obs.EvIncumbent {
			continue
		}
		if !haveInc {
			fmt.Println("\nincumbent staircase:")
			haveInc = true
		}
		k := "-"
		if e.K != 0 {
			k = fmt.Sprint(e.K)
		}
		fmt.Printf("  %12s  k=%-4s obj=%-8d %s\n",
			time.Duration(e.T).Round(time.Microsecond), k, e.Val, e.Who)
	}

	// Node throughput.
	var nodes int64
	for _, e := range events {
		if e.Kind == obs.EvNodes {
			nodes += e.Val
		}
	}
	if nodes > 0 {
		fmt.Println("\nsearch effort (batched; tails below one batch not journaled):")
		rate := ""
		if secs := time.Duration(events[len(events)-1].T - events[0].T).Seconds(); secs > 0 {
			rate = fmt.Sprintf(" (%.0f/s over the recording)", float64(nodes)/secs)
		}
		fmt.Printf("  %d nodes%s\n", nodes, rate)
	}
	return nil
}

func cappedSuffix(capped bool) string {
	if capped {
		return " (capped)"
	}
	return ""
}
