package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestClaimAvailability pins the availability experiment's qualitative
// result: under a transient fault storm — a staggered partial bisection
// cut plus a router outage, all healing — the adaptive router delivers a
// higher fraction of the offered traffic than deterministic routing over
// the same damage, because each table swap forces deterministic routing
// into a full static-reconfiguration drain while the adaptive router
// only drains its escape layer. With the end-to-end reliability layer
// on, both policies must return to exactly-once delivery of everything.
//
// The experiment is fully seeded, so the assertions are deterministic;
// the margins they pin are wide (the delivered-fraction gap is tens of
// percentage points at Quick fidelity, not a knife edge).
func TestClaimAvailability(t *testing.T) {
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: 1, Cache: testCache}
	rows, err := r.Availability(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AvailabilityRow{}
	for _, row := range rows {
		byName[row.Policy] = row
		if row.Plain.Saturated {
			t.Fatalf("%s: plain run saturated: %s", row.Policy, row.Plain.SatReason)
		}
		if row.Reliable.Saturated {
			t.Fatalf("%s: reliable run saturated: %s", row.Policy, row.Reliable.SatReason)
		}
		// The storm must actually bite: transitions destroy flits and,
		// without reliability, messages.
		if row.Plain.DroppedFlits == 0 || row.Plain.DroppedMessages == 0 {
			t.Errorf("%s: storm destroyed nothing (flits=%d msgs=%d)",
				row.Policy, row.Plain.DroppedFlits, row.Plain.DroppedMessages)
		}
		if row.Plain.ReconvergenceEpochs < 8 {
			t.Errorf("%s: expected a multi-event storm, saw %d transitions",
				row.Policy, row.Plain.ReconvergenceEpochs)
		}
		// Reliability restores exactly-once end to end: nothing lost,
		// nothing given up on.
		if row.Reliable.DeliveredFraction != 1 {
			t.Errorf("%s: reliability delivered fraction %g != 1",
				row.Policy, row.Reliable.DeliveredFraction)
		}
		if row.Reliable.DroppedMessages != 0 || row.Reliable.Abandoned != 0 {
			t.Errorf("%s: reliability lost %d / abandoned %d messages",
				row.Policy, row.Reliable.DroppedMessages, row.Reliable.Abandoned)
		}
		// The guarantee is not free: the storm forces retransmissions.
		if row.Reliable.Retransmits == 0 {
			t.Errorf("%s: reliable run never retransmitted under the storm", row.Policy)
		}
	}
	ad, det := byName["adaptive"], byName["deterministic"]
	if ad.Policy == "" || det.Policy == "" {
		t.Fatalf("missing policies in %v", rows)
	}

	// The headline claim: the adaptive router keeps more of the offered
	// traffic flowing through the storm — a higher delivered fraction, or
	// a recovery at least 1.2x faster when fractions tie.
	frac := ad.Plain.DeliveredFraction > det.Plain.DeliveredFraction
	rec := ad.Plain.RecoveryCycles >= 0 &&
		(det.Plain.RecoveryCycles < 0 || // deterministic never recovered
			float64(det.Plain.RecoveryCycles) >= 1.2*float64(ad.Plain.RecoveryCycles))
	if !frac && !rec {
		t.Errorf("availability claim failed: adaptive frac=%.4f rec=%d vs deterministic frac=%.4f rec=%d",
			ad.Plain.DeliveredFraction, ad.Plain.RecoveryCycles,
			det.Plain.DeliveredFraction, det.Plain.RecoveryCycles)
	}

	// Render sanity: the report names the storm and both policies.
	var b strings.Builder
	RenderAvailability(&b, rows)
	out := b.String()
	for _, want := range []string{"adaptive", "deterministic", "schedule["} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	if got := len(availabilityRecords(rows)); got != 5 {
		t.Errorf("records = %d, want 5 (header + 2 policies x 2 reliability modes)", got)
	}
}
