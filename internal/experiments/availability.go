package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lapses/internal/core"
	"lapses/internal/fault"
)

// The availability experiment measures what adaptive routing buys while
// the network is actively failing, not merely degraded: a transient fault
// storm — several links and a router going down mid-measurement, most
// healing — hits the 16x16 mesh at the moderate load, and the experiment
// compares the full LAPSES router (Duato adaptive + LRU) against
// deterministic routing (up*/down* over the same damage, the degraded
// form of dimension-order) on three availability metrics:
//
//   - delivered fraction: measured messages that arrived (losses are
//     flits destroyed by a transition's reconfiguration drain or bound
//     for the dead router);
//   - p99 latency: the tail cost of routing around the storm;
//   - recovery: how long after the last failure the delivery rate
//     returns to 95% of its pre-fault mean (core.Result.RecoveryCycles).
//
// Each policy also runs with the end-to-end NI reliability layer on,
// where the delivered fraction must return to 1.0 — the retransmission
// column then shows what that guarantee costs.
//
// Both policies inject the identical workload (same seed, same
// generation streams), so every difference is routing.

// availabilityLoad is the offered load during the storm: high enough
// that the cut congests the deterministic detours, below healthy
// saturation for both policies.
const availabilityLoad = 0.3

// AvailabilitySchedule builds the experiment's storm on the 16x16 mesh:
// half the central column's cross links — a partial bisection cut —
// fail in a staggered burst starting at cycle 1000 and heal in the same
// order from cycle 3000, and a nearby router dies and recovers inside
// the same window (9 timed events for the default dims). The staggering
// makes every down and every heal its own reconvergence, which is where
// the policies separate: each table swap drains the layer that carries
// the deadlock argument, and for deterministic routing that layer is
// the whole network (every swap is a static reconfiguration) while the
// adaptive router only drains its escape VCs and keeps the adaptive
// layer's traffic in flight. Every element heals, so the end-to-end
// reliability layer can always finish the job (delivered fraction 1.0).
func AvailabilitySchedule(base core.Config) (*fault.Schedule, error) {
	m := base.Mesh()
	cols := base.Dims[0]
	c := cols / 2
	var b strings.Builder
	for i := 0; i < base.Dims[1]/2; i++ {
		n := i*cols + (c - 1)
		fmt.Fprintf(&b, "%d-%d@%d:%d,", n, n+1, 1000+25*i, 3000+25*i)
	}
	fmt.Fprintf(&b, "r%d@1300:3100", (base.Dims[1]/2+2)*cols+c+4)
	return fault.ParseSchedule(m, b.String())
}

// AvailabilityRow is one routing policy under the storm.
type AvailabilityRow struct {
	Policy   string
	Schedule *fault.Schedule
	// Plain is the run without the reliability layer: the delivered
	// fraction shows what the storm destroys.
	Plain core.Result
	// Reliable is the same run with end-to-end retransmission on: the
	// delivered fraction must be 1.0, and Retransmits/DupSuppressed show
	// the price.
	Reliable core.Result
}

// availabilityReliability is the reliability axis: each policy runs with
// the end-to-end layer off and on.
var availabilityReliability = []struct {
	on   bool
	slot func(*AvailabilityRow) *core.Result
}{
	{false, func(r *AvailabilityRow) *core.Result { return &r.Plain }},
	{true, func(r *AvailabilityRow) *core.Result { return &r.Reliable }},
}

// Availability runs the storm grid: 2 policies x (reliability off, on).
func (r Runner) Availability(ctx context.Context) ([]AvailabilityRow, error) {
	base := r.base()
	base.Load = availabilityLoad
	sched, err := AvailabilitySchedule(base)
	if err != nil {
		return nil, fmt.Errorf("experiments: availability storm: %w", err)
	}
	rows := make([]AvailabilityRow, len(policies))
	var g grid
	for i, pol := range policies {
		rows[i] = AvailabilityRow{Policy: pol.name, Schedule: sched}
		row := &rows[i]
		for _, rel := range availabilityReliability {
			c := base
			c.Algorithm = pol.alg
			c.Selection = pol.sel
			c.Faults = sched
			c.Reliability = rel.on
			slot := rel.slot(row)
			g.add(c, func(res core.Result) { *slot = res })
		}
	}
	if err := g.run(ctx, r.opts()); err != nil {
		return nil, err
	}
	return rows, nil
}

// recoveryCell renders RecoveryCycles, "-" when the run never recovered
// or had no baseline.
func recoveryCell(r core.Result) string {
	if r.RecoveryCycles < 0 {
		return "-"
	}
	return strconv.FormatInt(r.RecoveryCycles, 10)
}

// RenderAvailability prints the experiment in the repo's table style.
func RenderAvailability(w io.Writer, rows []AvailabilityRow) {
	fmt.Fprintln(w, "Availability: delivered fraction, tail latency and recovery under a transient fault storm")
	if len(rows) > 0 {
		fmt.Fprintf(w, "(storm: %s; adaptive = LA Duato + ES + LRU; deterministic = up*/down* over the same storm)\n", rows[0].Schedule)
	}
	fmt.Fprintf(w, "%-14s %10s %10s %10s %9s %9s | %10s %9s %8s %9s\n",
		"policy", "delivered", "p99-lat", "recovery", "drp-flit", "drp-msg", "rel-deliv", "retrans", "dups", "abandoned")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9.2f%% %10.1f %10s %9d %9d | %9.2f%% %9d %8d %9d\n",
			r.Policy,
			100*r.Plain.DeliveredFraction, r.Plain.P99, recoveryCell(r.Plain),
			r.Plain.DroppedFlits, r.Plain.DroppedMessages,
			100*r.Reliable.DeliveredFraction, r.Reliable.Retransmits,
			r.Reliable.DupSuppressed, r.Reliable.Abandoned)
	}
}

// availabilityRecords has one record per (policy, reliability).
func availabilityRecords(rows []AvailabilityRow) [][]string {
	recs := [][]string{{
		"policy", "reliability", "storm",
		"delivered_fraction", "p99_latency", "recovery_cycles",
		"dropped_flits", "dropped_messages", "reconvergence_epochs",
		"retransmits", "dup_suppressed", "abandoned",
	}}
	for _, r := range rows {
		for _, rel := range availabilityReliability {
			res := rel.slot(&r)
			recs = append(recs, []string{
				r.Policy,
				strconv.FormatBool(rel.on),
				r.Schedule.Key(),
				fixed(res.DeliveredFraction, 5),
				fixed(res.P99, 2),
				strconv.FormatInt(res.RecoveryCycles, 10),
				strconv.FormatInt(res.DroppedFlits, 10),
				strconv.FormatInt(res.DroppedMessages, 10),
				strconv.FormatInt(res.ReconvergenceEpochs, 10),
				strconv.FormatInt(res.Retransmits, 10),
				strconv.FormatInt(res.DupSuppressed, 10),
				strconv.FormatInt(res.Abandoned, 10),
			})
		}
	}
	return recs
}
