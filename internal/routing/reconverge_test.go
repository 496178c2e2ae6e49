package routing

import (
	"testing"

	"lapses/internal/fault"
	"lapses/internal/topology"
)

// TestReconvergenceNoLoop is the soundness half of live route
// reconvergence: at every instant of a transient fault schedule, the
// routing the network swaps in at that epoch's transition must be a
// complete fault-aware policy on its own — every pair of live nodes
// connected by the escape walk (no transient routing loop survives a
// table swap) and the escape-channel dependency graph acyclic (no epoch,
// however brief, can deadlock). Epochs are exactly the routes
// network.BuildEpochRoutes programs, so this pins the property for the
// whole lifetime of any scheduled run.
func TestReconvergenceNoLoop(t *testing.T) {
	cls := Class{NumVCs: 4, EscapeVCs: 1}
	for _, m := range faultTestMeshes() {
		for seed := int64(1); seed <= 6; seed++ {
			sched, err := fault.RandomSchedule(m, 4, 1, 10000, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m, seed, err)
			}
			for e := 0; e < sched.Epochs(); e++ {
				plan := sched.Plan(e)
				alg, err := NewFaultDuato(m, cls, plan)
				if err != nil {
					t.Fatalf("%s seed %d epoch %d: %v", m, seed, e, err)
				}
				if ok, cycle := Acyclic(EscapeDependencyGraph(m, alg, cls)); !ok {
					t.Fatalf("%s seed %d epoch %d: escape dependency cycle: %v", m, seed, e, cycle)
				}
				for cur := topology.NodeID(0); int(cur) < m.N(); cur++ {
					for dst := topology.NodeID(0); int(dst) < m.N(); dst++ {
						if plan.NodeDead(cur) || plan.NodeDead(dst) {
							continue
						}
						path, ok := walkToDst(t, m, alg, cur, dst)
						if !ok {
							t.Fatalf("%s seed %d epoch %d: escape walk %d->%d loops or strands (path %v)",
								m, seed, e, cur, dst, path)
						}
					}
				}
			}
		}
	}
}
