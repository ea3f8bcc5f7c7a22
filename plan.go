package hypdb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hypdb/internal/dataset"
	"hypdb/internal/planner"
	"hypdb/source"
)

// Plan is a solved batch plan of the lattice-aware multi-query planner: the
// cuboid frontier primed into the session count cache to serve a whole
// analyze/audit batch by marginalization, plus the per-demand assignment
// and round-trip accounting. Retrieve the latest one with LastPlan and
// render it with WriteText (the CLI's audit -explain-plan dump).
type Plan = planner.Plan

// PlannerStats aggregates the session's batch-planner activity, reported
// inside Stats and surfaced per dataset by the server's /v1/metrics.
type PlannerStats struct {
	// Plans counts executed batch plans; Cuboids the lattice nodes they
	// primed; CellsMaterialized their summed (estimated) cell counts.
	Plans             int
	Cuboids           int
	CellsMaterialized int
	// DemandsPlanned counts demands a plan covered; DemandsProjected the
	// subset of those served by marginalizing a strictly wider cuboid —
	// the cross-request sharing the planner bought.
	DemandsPlanned   int
	DemandsProjected int
	// RoundTripsSaved accumulates plans' backend fetches avoided versus
	// per-request priming (one fetch per distinct closure).
	RoundTripsSaved int
}

// DefaultPlanWindow is the demand-coalescing window the server installs on
// its dataset handles (SetPlanWindow): the first request of a batch epoch
// waits this long for concurrent requests to contribute their demands
// before the plan is solved and primed, so mixed analyze/audit traffic
// landing together shares one cuboid frontier. Direct library handles
// default to no window — an AnalyzeAll call already carries its whole
// batch, and delaying it buys nothing.
const DefaultPlanWindow = 10 * time.Millisecond

// SetPlanWindow sets the handle's demand-coalescing window. Zero (the
// default) plans each request's demands immediately; a positive window
// makes the first planning request of an epoch wait for concurrent
// requests' demands, which multi-tenant servers want (DefaultPlanWindow)
// and single-caller sessions do not. Safe to call concurrently with
// queries; an in-flight window keeps its old duration.
func (db *DB) SetPlanWindow(d time.Duration) {
	db.planMu.Lock()
	db.planWindow = d
	db.planMu.Unlock()
}

// planGate collects the demands of one coalescing window. The leader (the
// request that created the gate) closes it after the window, solves and
// executes the plan, then releases the waiting followers.
type planGate struct {
	done    chan struct{}
	demands []planner.Demand
	closed  bool
	plan    *planner.Plan
	err     error
}

// planBatch routes one request's demands through the per-epoch coalescing
// gate and returns the executed plan plus the offset of this request's
// demands within plan.Demands — or nil when planning failed or was skipped
// (callers then fall back to per-request priming; never an error, the
// planner is purely a cost optimization).
func (db *DB) planBatch(ctx context.Context, rel source.Relation, demands []planner.Demand) (*planner.Plan, int) {
	if len(demands) == 0 {
		return nil, 0
	}
	epoch := rel.Backend()
	db.planMu.Lock()
	if g, ok := db.planGates[epoch]; ok && !g.closed {
		// Follower: contribute demands to the open window, then wait for
		// the leader's plan.
		off := len(g.demands)
		g.demands = append(g.demands, demands...)
		db.planMu.Unlock()
		select {
		case <-g.done:
		case <-ctx.Done():
			return nil, 0
		}
		if g.err != nil || g.plan == nil {
			return nil, 0
		}
		return g.plan, off
	}
	g := &planGate{done: make(chan struct{}), demands: append([]planner.Demand(nil), demands...)}
	if db.planGates == nil {
		db.planGates = make(map[string]*planGate)
	}
	db.planGates[epoch] = g
	window := db.planWindow
	db.planMu.Unlock()

	if window > 0 {
		t := time.NewTimer(window)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}

	db.planMu.Lock()
	g.closed = true
	if db.planGates[epoch] == g {
		delete(db.planGates, epoch)
	}
	all := g.demands
	db.planMu.Unlock()

	g.plan, g.err = db.solvePlan(ctx, rel, all)
	close(g.done)
	if g.err != nil || g.plan == nil {
		return nil, 0
	}
	return g.plan, 0
}

// solvePlan builds, executes and records one plan.
func (db *DB) solvePlan(ctx context.Context, rel source.Relation, demands []planner.Demand) (*planner.Plan, error) {
	rows, err := rel.NumRows(ctx)
	if err != nil {
		return nil, err
	}
	cfg := planner.Config{
		Rows:      rows,
		FetchCost: rows * backendFetchWeight(rel.Backend()),
		Card: func(ctx context.Context, attr string) (int, error) {
			return source.Card(ctx, rel, attr)
		},
	}
	p, err := planner.New(ctx, cfg, demands)
	if err != nil {
		return nil, err
	}
	if err := p.Execute(ctx); err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.planStats.Plans++
	db.planStats.Cuboids += len(p.Cuboids)
	db.planStats.CellsMaterialized += p.Cells
	db.planStats.RoundTripsSaved += p.Saved()
	db.planStats.DemandsProjected += p.Projected
	for _, a := range p.Assign {
		if a >= 0 {
			db.planStats.DemandsPlanned++
		}
	}
	db.lastPlan = p
	db.mu.Unlock()
	return p, nil
}

// backendFetchWeight estimates the relative cost of one backend round trip
// against tabulating the same rows from memory: SQL pays query planning,
// row decoding and the driver round trip; remote shards additionally pay
// the network. The weights only steer the merge heuristic — a wrong weight
// costs round trips, never correctness.
func backendFetchWeight(backend string) int {
	switch {
	case strings.HasPrefix(backend, "remote:"):
		return 100
	case strings.HasPrefix(backend, "sqldb:"), strings.HasPrefix(backend, "sharded:"):
		return 25
	default:
		return 1
	}
}

// analyzeDemands extracts the count demands of an AnalyzeAll batch: per
// query, the covariate-discovery closure (the schema minus the query's
// groupings — the superset DiscoverCovariates unions for it) and, for
// grouped queries, the run set (treatment, groupings and outcomes) the
// query execution itself counts over. demandQuery maps each demand back to
// its query index so callers can tell which queries the plan fully covers.
func analyzeDemands(ctx context.Context, rel source.Relation, queries []Query) (demands []planner.Demand, demandQuery []int) {
	attrs := rel.Attributes()
	for i, q := range queries {
		view := rel
		key := rel.Backend()
		if q.Where != nil {
			whereKey, cacheable := dataset.PredicateKey(q.Where)
			if !cacheable {
				continue // no canonical predicate encoding: leave unplanned
			}
			restricted, err := rel.Restrict(ctx, q.Where)
			if err != nil {
				continue
			}
			view, key = restricted, key+"|"+whereKey
		}
		closure := excludeAll(attrs, q.Groupings)
		demands = append(demands, planner.Demand{
			Source: fmt.Sprintf("analyze[%d] cd", i), Attrs: closure, View: view, Key: key,
		})
		demandQuery = append(demandQuery, i)
		if len(q.Groupings) > 0 {
			run := append([]string{q.Treatment}, q.Groupings...)
			run = append(run, q.Outcomes...)
			demands = append(demands, planner.Demand{
				Source: fmt.Sprintf("analyze[%d] run", i), Attrs: run, View: view, Key: key,
			})
			demandQuery = append(demandQuery, i)
		}
	}
	return demands, demandQuery
}

// auditDemand extracts an Audit sweep's count demand: every candidate's
// discovery closes over the audited view's full schema, so the sweep is
// one whole-schema demand on the (possibly restricted) view.
func auditDemand(ctx context.Context, rel source.Relation, spec AuditSpec) (planner.Demand, bool) {
	view := rel
	key := rel.Backend()
	if spec.Where != nil {
		whereKey, cacheable := dataset.PredicateKey(spec.Where)
		if !cacheable {
			return planner.Demand{}, false
		}
		restricted, err := rel.Restrict(ctx, spec.Where)
		if err != nil {
			return planner.Demand{}, false
		}
		view, key = restricted, key+"|"+whereKey
	}
	return planner.Demand{Source: "audit", Attrs: view.Attributes(), View: view, Key: key}, true
}

// LastPlan returns the most recently executed batch plan of this handle —
// what AnalyzeAll or Audit primed the count cache with — or nil when no
// plan has run (empty batches, or no call yet). The
// returned plan is a shared snapshot; treat it as read-only.
func (db *DB) LastPlan() *Plan {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastPlan
}

// excludeAll returns attrs minus the given exclusions, preserving order.
func excludeAll(attrs, minus []string) []string {
	if len(minus) == 0 {
		return append([]string(nil), attrs...)
	}
	drop := make(map[string]bool, len(minus))
	for _, m := range minus {
		drop[m] = true
	}
	out := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if !drop[a] {
			out = append(out, a)
		}
	}
	return out
}

// planAnalyses routes an AnalyzeAll batch's count demands through the
// planner (unless a test disabled it) and marks the queries all of whose demands the
// primed plan covers: those run with the pipeline's own per-closure priming
// skipped (the plan's cuboids already serve them), the rest keep the
// unplanned path.
func (db *DB) planAnalyses(ctx context.Context, queries []Query, st settings) []bool {
	planned := make([]bool, len(queries))
	if st.noPlanner {
		return planned
	}
	rel := db.view()
	demands, demandQuery := analyzeDemands(ctx, rel, queries)
	p, off := db.planBatch(ctx, rel, demands)
	if p == nil {
		return planned
	}
	seen, missed := make([]bool, len(queries)), make([]bool, len(queries))
	for j, qi := range demandQuery {
		seen[qi] = true
		missed[qi] = missed[qi] || p.Assign[off+j] < 0
	}
	for i := range planned {
		planned[i] = seen[i] && !missed[i]
	}
	return planned
}
