package hypdb

import (
	"context"

	"hypdb/internal/core"
	"hypdb/internal/dataset"
)

// AuditSpec configures a lattice-wide bias sweep: which attributes may play
// the treatment and outcome roles, the population restriction, and the
// support/cardinality filters applied before any statistical testing.
// The zero value sweeps every eligible attribute pair of the whole
// relation with the package-default thresholds.
type AuditSpec = core.AuditSpec

// AuditReport is the result of a lattice-wide bias sweep: the biased
// candidate queries ranked by effect-reversal strength and significance,
// plus the full accounting of unbiased, pruned and excluded candidates.
type AuditReport = core.AuditReport

// AuditFinding is one biased candidate query of an audit sweep.
type AuditFinding = core.AuditFinding

// AuditPruned records a candidate excluded by the support filter.
type AuditPruned = core.AuditPruned

// AuditExcluded records an attribute kept out of a sweep role.
type AuditExcluded = core.AuditExcluded

// AuditUnbiased records an evaluated candidate that passed the balance
// test.
type AuditUnbiased = core.AuditUnbiased

// Audit default thresholds; zero AuditSpec fields fall back to these.
const (
	// DefaultMinSupport is the minimum per-group row count a candidate
	// query needs to be evaluated.
	DefaultMinSupport = core.DefaultMinSupport
	// DefaultMaxTreatmentCard bounds treatment-candidate cardinality.
	DefaultMaxTreatmentCard = core.DefaultMaxTreatmentCard
	// DefaultMaxOutcomeCard bounds outcome-candidate cardinality.
	DefaultMaxOutcomeCard = core.DefaultMaxOutcomeCard
)

// Audit proactively sweeps the relation's (treatment, outcome) query
// lattice for bias: it enumerates every ordered attribute pair passing the
// spec's role, cardinality and support filters, runs bias detection on
// each surviving candidate over a bounded worker pool (spec.Workers),
// and returns the biased queries ranked by effect-reversal strength and
// significance, with responsible covariates and coarse explanations
// attached.
//
// The sweep shares work with the rest of the session: covariate-discovery
// results are memoized in the handle's bounded single-flight memo (one
// discovery per treatment serves every candidate sharing it, and later
// Audit or Analyze calls reuse them), each outcome's parent discovery runs
// once per sweep through a memo of the sweep's own, shared by every
// treatment group, and the session count cache is primed with one finest
// group-by over the audited view's whole schema (a cache hit when an earlier
// AnalyzeAll batch primed it), so on SQL backends an entire sweep costs O(1)
// GROUP BY round trips rather than one per candidate.
// Candidates below the support threshold (spec.MinSupport) are pruned
// before any permutation test runs and are listed in the report — nothing
// is dropped silently. The options set the tests each candidate runs;
// WithWorkers does not apply, since spec.Workers sizes the sweep's pool.
// Cancelling ctx aborts the sweep promptly.
func (db *DB) Audit(ctx context.Context, spec AuditSpec, opts ...Option) (*AuditReport, error) {
	o := newSettings(opts).opts
	// Staleness marking: if the storage layer's degraded-serve counter grew
	// during the sweep, at least one read was answered with a shard missing
	// and the whole report may rest on partial counts. The counter is
	// sampled before pinning — a concurrent degraded read landing between
	// the pin and the sample can poison the pinned version's cache, so it
	// must mark this report too. The check is conservative under concurrency
	// (another call's degraded read marks this report as well), which errs
	// on the side of flagging.
	before := db.degradedServes()
	// The whole sweep runs over one pinned snapshot: rows appended while an
	// audit is in flight are invisible to it and cannot perturb the report.
	rel := db.view()
	// The session memoizer serves the sweep's covariate discoveries, keyed
	// by the sweep's WHERE restriction — the same bypass rules as Analyze:
	// a hook already set wins, and predicates without a canonical encoding
	// run uncached.
	if o.Discover == nil {
		if whereKey, cacheable := dataset.PredicateKey(spec.Where); cacheable {
			o.Discover = db.discoverFunc(rel.Backend(), whereKey)
		}
	}
	rep, err := core.Audit(ctx, rel, spec, o)
	if err == nil && db.degradedServes() > before {
		rep.Degraded = true
	}
	return rep, err
}
