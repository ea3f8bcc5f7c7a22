// Package api defines the JSON wire types of the hypdbd analysis service
// and a thin typed client for it.
//
// The service exposes the full HypDB pipeline over HTTP:
//
//	POST   /v1/datasets              upload a CSV, creating a named dataset
//	GET    /v1/datasets              list datasets
//	GET    /v1/datasets/{name}/stats schema, size and cache counters
//	POST   /v1/datasets/{name}/append  stream rows into a sharded dataset
//	POST   /v1/datasets/{name}/counts  dictionary-coded group-by counts
//	                                   (the remote-shard transport; wire
//	                                   types live in hypdb/source/remote)
//	DELETE /v1/datasets/{name}       drop a dataset
//	POST   /v1/analyze               analyze one query
//	POST   /v1/analyze/batch         analyze a batch over a shared worker pool
//	POST   /v1/audit                 sweep the dataset's query lattice for bias
//	GET    /v1/metrics               service-wide counters
//	GET    /healthz                  liveness
//
// Every response body is JSON. Failures carry an Error envelope
// {"error":{"code":...,"message":...}}; the typed Client surfaces them as
// *Error values, so callers switch on Code (or the HTTP Status) rather than
// parsing message text. Request WHERE clauses are SQL-style predicate text,
// parsed server-side by hypdb.ParsePredicate.
package api

import (
	"fmt"
	"slices"
	"time"

	"hypdb"
)

// Error is the service's error envelope. It implements error on the client
// side; Status is the HTTP status code the server responded with.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds, when positive, is the server's backoff hint for
	// 429 rate_limited / 503 overloaded responses: how long to wait before
	// a retry has a chance of being admitted. The server sends it both in
	// this envelope and as the standard Retry-After header; the typed
	// client fills the field from either.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("hypdbd: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// RetryAfter returns the server's backoff hint as a duration, zero when
// the response carried none.
func (e *Error) RetryAfter() time.Duration {
	if e.RetryAfterSeconds <= 0 {
		return 0
	}
	return time.Duration(e.RetryAfterSeconds * float64(time.Second))
}

// Error codes returned by the service.
const (
	CodeBadRequest         = "bad_request"           // malformed JSON, bad names, bad parameters
	CodeMalformedCSV       = "malformed_csv"         // upload body is not loadable CSV
	CodeBadPredicate       = "bad_predicate"         // WHERE clause failed to parse
	CodeUnknownAttribute   = "unknown_attribute"     // query references a missing column
	CodeEmptySelection     = "empty_selection"       // WHERE clause selects no rows
	CodeEmptyTable         = "empty_table"           // independence test over zero rows
	CodeNonBinaryTreatment = "non_binary_treatment"  // comparison needs exactly two treatment values
	CodeNonNumericOutcome  = "non_numeric_outcome"   // outcome attribute has values avg() cannot parse
	CodeNoOverlap          = "no_overlap"            // rewriting impossible: no block has every treatment value
	CodeNeedsMaterialize   = "needs_materialization" // row-level analysis on a counts-only storage backend
	CodeNotAppendable      = "not_appendable"        // append to a dataset whose backend cannot grow
	CodePeerUnavailable    = "peer_unavailable"      // a remote shard peer is down past its retry budget
	CodePeerAuth           = "peer_auth"             // a remote shard peer rejected this node's credentials
	CodeVersionSkew        = "version_skew"          // peer snapshot version differs from the one pinned
	CodeDatasetNotFound    = "dataset_not_found"
	CodeDatasetExists      = "dataset_exists"
	CodeTooManyDatasets    = "too_many_datasets"
	CodeBodyTooLarge       = "body_too_large" // request body exceeds the server's limit
	CodeTimeout            = "timeout"        // request exceeded the server's analysis timeout
	CodeShuttingDown       = "shutting_down"  // server is draining; request was cancelled
	CodeUnauthorized       = "unauthorized"   // missing or unknown bearer token (HTTP 401)
	CodeForbidden          = "forbidden"      // token scope does not allow the operation (HTTP 403)
	CodeRateLimited        = "rate_limited"   // client token bucket empty (HTTP 429 + Retry-After)
	CodeOverloaded         = "overloaded"     // admission queue full or deadline unmeetable (HTTP 503 + Retry-After)
	CodeInternal           = "internal"
)

// errorEnvelope is the wire shape of a failure response.
type errorEnvelope struct {
	Error *Error `json:"error"`
}

// ---------------------------------------------------------------------------
// Datasets

// CreateDatasetRequest registers a named dataset. Exactly one storage form
// is used:
//
//   - CSV: an inline CSV body (header row required); the dataset is loaded
//     into the in-memory backend. Alternatively the endpoint accepts a raw
//     text/csv body with the name in the `name` query parameter.
//   - Driver/DSN/SQLTable: the dataset is served by the SQL backend — the
//     server opens the database/sql driver with the DSN and pushes group-by
//     count aggregation down to it. The driver must be compiled into the
//     server binary.
type CreateDatasetRequest struct {
	Name string `json:"name"`
	CSV  string `json:"csv,omitempty"`

	// Driver is the database/sql driver name (e.g. "postgres", "memsql").
	Driver string `json:"driver,omitempty"`
	// DSN is the driver-specific data source name.
	DSN string `json:"dsn,omitempty"`
	// SQLTable is the table within the database to analyze.
	SQLTable string `json:"sql_table,omitempty"`

	// Shards, when > 1, serves an uploaded CSV through the sharded
	// partition-parallel backend with that many horizontal partitions —
	// group-by counts fan out to the shards concurrently, and the dataset
	// accepts streaming appends (POST /v1/datasets/{name}/append). Ignored
	// for SQL-backed datasets. Zero uses the server's default (-shards).
	Shards int `json:"shards,omitempty"`
}

// DatasetInfo summarizes one dataset.
type DatasetInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// Backend names the storage backend serving the dataset: "mem" for
	// uploaded CSV, "sharded" for partition-parallel uploads, "sqldb" for
	// DSN-registered SQL tables.
	Backend   string    `json:"backend,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// Shards is the number of horizontal partitions of a sharded dataset:
	// the registration shards plus the append deltas left after merging
	// (popcount(k) after k appends of equal size); zero for unsharded
	// backends.
	Shards int `json:"shards,omitempty"`
	// Version is a sharded dataset's snapshot version: 1 at registration,
	// incremented by every non-empty append. Zero for unsharded backends.
	Version uint64 `json:"version,omitempty"`
	// Peers lists the base URLs of the hypdbd peers serving a
	// remote-sharded dataset (backend "remote"); empty otherwise.
	Peers []string `json:"peers,omitempty"`
}

// AppendRequest is the POST /v1/datasets/{name}/append body: rows to
// ingest, each with one string value per attribute in schema order.
type AppendRequest struct {
	Rows [][]string `json:"rows"`
}

// AppendResponse reports one streaming ingestion: rows admitted, the
// dataset's new total, and the new snapshot version. In-flight analyses
// keep the snapshot they started on; the appended rows are visible to
// requests arriving after the response.
type AppendResponse struct {
	Appended int    `json:"appended"`
	Rows     int    `json:"rows"`
	Version  uint64 `json:"version"`
}

// DatasetList is the GET /v1/datasets response.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// AttributeInfo describes one column of a dataset.
type AttributeInfo struct {
	Name     string `json:"name"`
	Distinct int    `json:"distinct"`
}

// CacheStats reports a dataset session's covariate-discovery cache
// activity: Computes counts discoveries actually executed, Hits counts
// calls answered by a kept or an in-flight result.
type CacheStats struct {
	CDComputes int `json:"cd_computes"`
	CDHits     int `json:"cd_hits"`
}

// DatasetStats is the GET /v1/datasets/{name}/stats response.
type DatasetStats struct {
	DatasetInfo
	Attributes []AttributeInfo `json:"attributes"`
	Cache      CacheStats      `json:"cache"`
	// Analyses counts analyze requests (batch items included) served over
	// this dataset.
	Analyses int64 `json:"analyses"`
}

// ---------------------------------------------------------------------------
// Analysis requests

// Query is the wire form of the group-by-average OLAP query: SELECT
// treatment, groupings, avg(outcomes...) FROM dataset WHERE where GROUP BY
// treatment, groupings.
type Query struct {
	Treatment string   `json:"treatment"`
	Groupings []string `json:"groupings,omitempty"`
	Outcomes  []string `json:"outcomes"`
	// Where is a SQL-style predicate, e.g. `Carrier IN ('AA','UA') AND
	// Airport = 'ROC'`; empty selects every row.
	Where string `json:"where,omitempty"`
}

// ToQuery converts the wire query into the library's form, parsing the
// WHERE clause.
func (q Query) ToQuery(dataset string) (hypdb.Query, error) {
	out := hypdb.Query{
		Table:     dataset,
		Treatment: q.Treatment,
		Groupings: q.Groupings,
		Outcomes:  q.Outcomes,
	}
	if q.Where != "" {
		pred, err := hypdb.ParsePredicate(q.Where)
		if err != nil {
			return hypdb.Query{}, err
		}
		out.Where = pred
	}
	return out, nil
}

// Options tunes an analysis. The zero value reproduces the paper's setup
// (HyMIT, α = 0.01, 1000 permutations, serial replicates).
type Options struct {
	// Method selects the conditional-independence test: "hymit" (default),
	// "chi2", "mit" or "mit-sampling".
	Method string `json:"method,omitempty"`
	// Alpha is the significance level; zero means 0.01.
	Alpha float64 `json:"alpha,omitempty"`
	// Permutations is the Monte-Carlo replicate count; zero means 1000.
	Permutations int `json:"permutations,omitempty"`
	// Seed fixes every Monte-Carlo component; results for one seed are
	// deterministic regardless of Parallel.
	Seed int64 `json:"seed,omitempty"`
	// Parallel uses the server's cores inside one analysis: permutation
	// replicates and the analysis's independent discovery searches fan
	// out. Results are identical either way. Leave it off for throughput
	// under concurrent load.
	Parallel bool `json:"parallel,omitempty"`
	// SkipDirect disables mediator discovery and the direct-effect
	// rewriting.
	SkipDirect bool `json:"skip_direct,omitempty"`
	// Covariates overrides automatic covariate discovery.
	Covariates []string `json:"covariates,omitempty"`
	// Mediators overrides automatic mediator discovery.
	Mediators []string `json:"mediators,omitempty"`
	// Baseline fixes the treatment value whose mediator distribution the
	// direct-effect rewriting holds constant; empty selects the smallest.
	Baseline string `json:"baseline,omitempty"`
	// FineAttrs / FineTopK shape the explanation sections (both default 2).
	FineAttrs int `json:"fine_attrs,omitempty"`
	FineTopK  int `json:"fine_top_k,omitempty"`
	// MaxCondSet caps conditioning-set sizes in the CD search.
	MaxCondSet int `json:"max_cond_set,omitempty"`
	// MaxBoundary caps Markov-boundary growth.
	MaxBoundary int `json:"max_boundary,omitempty"`
	// Workers bounds the batch worker pool (batch requests only). The
	// server reads it directly — clamped to the dataset's concurrency
	// limit — so ToOptions does not convert it.
	Workers int `json:"workers,omitempty"`
}

// ToOptions converts the wire options into the library's functional
// options. Unknown methods are rejected.
func (o Options) ToOptions() ([]hypdb.Option, error) {
	var method hypdb.TestMethod // "" means HyMIT, the zero method
	if o.Method != "" {
		if err := method.UnmarshalText([]byte(o.Method)); err != nil {
			return nil, err
		}
	}
	opts := []hypdb.Option{hypdb.WithMethod(method)}
	if o.Alpha != 0 {
		opts = append(opts, hypdb.WithAlpha(o.Alpha))
	}
	if o.Permutations != 0 {
		opts = append(opts, hypdb.WithPermutations(o.Permutations))
	}
	if o.Seed != 0 {
		opts = append(opts, hypdb.WithSeed(o.Seed))
	}
	if o.Parallel {
		opts = append(opts, hypdb.WithParallel(true))
	}
	if o.SkipDirect {
		opts = append(opts, hypdb.WithoutDirectEffect())
	}
	if len(o.Covariates) > 0 {
		opts = append(opts, hypdb.WithCovariates(o.Covariates...))
	}
	if len(o.Mediators) > 0 {
		opts = append(opts, hypdb.WithMediators(o.Mediators...))
	}
	if o.Baseline != "" {
		opts = append(opts, hypdb.WithBaseline(o.Baseline))
	}
	if o.FineAttrs != 0 || o.FineTopK != 0 {
		opts = append(opts, hypdb.WithExplanations(o.FineAttrs, o.FineTopK))
	}
	if o.MaxCondSet != 0 {
		opts = append(opts, hypdb.WithMaxCondSet(o.MaxCondSet))
	}
	if o.MaxBoundary != 0 {
		opts = append(opts, hypdb.WithMaxBoundary(o.MaxBoundary))
	}
	return opts, nil
}

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	Dataset string  `json:"dataset"`
	Query   Query   `json:"query"`
	Options Options `json:"options,omitempty"`
}

// AuditSpec is the wire form of a lattice-sweep configuration: which
// attributes may play the treatment and outcome roles, the population
// restriction, and the support/cardinality filters. The zero value sweeps
// every eligible attribute pair with the server defaults.
type AuditSpec struct {
	// Treatments / Outcomes restrict the sweep roles; empty sweeps every
	// eligible attribute (treatments of cardinality 2..max_treatment_card;
	// numeric outcomes of cardinality 2..max_outcome_card).
	Treatments []string `json:"treatments,omitempty"`
	Outcomes   []string `json:"outcomes,omitempty"`
	// Where is a SQL-style predicate restricting the audited population.
	Where string `json:"where,omitempty"`
	// MinSupport prunes candidates whose smaller compared treatment group
	// has fewer rows (default 50); pruned candidates are listed in the
	// report.
	MinSupport int `json:"min_support,omitempty"`
	// MaxTreatmentCard / MaxOutcomeCard bound candidate cardinalities
	// (defaults 10 and 24).
	MaxTreatmentCard int `json:"max_treatment_card,omitempty"`
	MaxOutcomeCard   int `json:"max_outcome_card,omitempty"`
	// TopK caps the ranked findings list; zero keeps all.
	TopK int `json:"top_k,omitempty"`
	// Workers bounds the sweep's worker pool, clamped to the dataset's
	// concurrency limit.
	Workers int `json:"workers,omitempty"`
}

// AuditRequest is the POST /v1/audit body.
type AuditRequest struct {
	Dataset string    `json:"dataset"`
	Spec    AuditSpec `json:"spec,omitempty"`
	Options Options   `json:"options,omitempty"`
}

// AuditReport is the POST /v1/audit response. Every enumerated candidate
// is accounted for: candidates == evaluated + len(pruned), and evaluated
// == total_findings + len(unbiased). The nested objects are the engine's
// own types, whose json tags are the wire schema.
type AuditReport struct {
	Treatments []string              `json:"treatments"`
	Outcomes   []string              `json:"outcomes"`
	Excluded   []hypdb.AuditExcluded `json:"excluded,omitempty"`
	Candidates int                   `json:"candidates"`
	Evaluated  int                   `json:"evaluated"`
	// Findings are the biased queries ranked by effect-reversal strength
	// and significance (capped at the spec's top_k; TotalFindings is the
	// uncapped count).
	Findings      []hypdb.AuditFinding  `json:"findings"`
	TotalFindings int                   `json:"total_findings"`
	Unbiased      []hypdb.AuditUnbiased `json:"unbiased,omitempty"`
	Pruned        []hypdb.AuditPruned   `json:"pruned,omitempty"`
	ElapsedMS     float64               `json:"elapsed_ms"`
	// Degraded is true when the sweep was answered with at least one remote
	// shard missing (degraded reads): every statistic may rest on partial
	// counts and the report must be treated as stale.
	Degraded bool `json:"degraded,omitempty"`
	// Text is the human-readable ranked table, as the CLI prints it.
	Text string `json:"text,omitempty"`
}

// AuditReportFromCore converts a library audit report into its wire form.
func AuditReportFromCore(r *hypdb.AuditReport) *AuditReport {
	if r == nil {
		return nil
	}
	return &AuditReport{
		Treatments:    r.Treatments,
		Outcomes:      r.Outcomes,
		Excluded:      r.Excluded,
		Candidates:    r.Candidates,
		Evaluated:     r.Evaluated,
		Findings:      nonNil(r.Findings),
		TotalFindings: r.TotalFindings,
		Unbiased:      r.Unbiased,
		Pruned:        r.Pruned,
		ElapsedMS:     float64(r.Elapsed.Microseconds()) / 1000,
		Degraded:      r.Degraded,
		Text:          r.String(),
	}
}

// ToSpec converts the wire spec into the library's form, parsing the WHERE
// clause. Workers is read by the server (clamped to the dataset's limit),
// not converted here.
func (s AuditSpec) ToSpec() (hypdb.AuditSpec, error) {
	out := hypdb.AuditSpec{
		Treatments:       s.Treatments,
		Outcomes:         s.Outcomes,
		MinSupport:       s.MinSupport,
		MaxTreatmentCard: s.MaxTreatmentCard,
		MaxOutcomeCard:   s.MaxOutcomeCard,
		TopK:             s.TopK,
	}
	if s.Where != "" {
		pred, err := hypdb.ParsePredicate(s.Where)
		if err != nil {
			return hypdb.AuditSpec{}, err
		}
		out.Where = pred
	}
	return out, nil
}

// BatchRequest is the POST /v1/analyze/batch body: the queries run over the
// dataset session's worker pool and share its covariate-discovery cache.
type BatchRequest struct {
	Dataset string  `json:"dataset"`
	Queries []Query `json:"queries"`
	Options Options `json:"options,omitempty"`
}

// BatchResponse aligns with the request's query order: exactly one of
// Reports[i] / Errors[i] is set per query. A malformed or failing query
// yields its own error entry instead of failing the whole batch, so mixed
// batches return every answer they can. Errors is omitted entirely when
// every query succeeded (older servers never set it — clients must treat a
// missing array as all-success).
type BatchResponse struct {
	Reports []*Report `json:"reports"`
	Errors  []*Error  `json:"errors,omitempty"`
}

// ---------------------------------------------------------------------------
// Analysis responses

// CDSummary compresses the treatment's covariate-discovery result.
type CDSummary struct {
	Parents      []string `json:"parents,omitempty"`
	Boundary     []string `json:"boundary,omitempty"`
	UsedFallback bool     `json:"used_fallback,omitempty"`
	Tests        int      `json:"tests"`
}

// Timing is the per-phase wall-clock cost in milliseconds.
type Timing struct {
	DetectMS  float64 `json:"detect_ms"`
	ExplainMS float64 `json:"explain_ms"`
	ResolveMS float64 `json:"resolve_ms"`
}

// Report is the wire form of a full analysis: detection, explanation and
// resolution. Only the top level differs from hypdb.Report (durations in
// milliseconds, the biased verdict, a CD summary and the text panel); the
// nested objects are the engine's own types, whose json tags are the wire
// schema.
type Report struct {
	OriginalSQL  string `json:"original_sql"`
	RewrittenSQL string `json:"rewritten_sql,omitempty"`

	Answer              []hypdb.Row              `json:"answer"`
	OriginalComparisons []hypdb.ComparisonReport `json:"original_comparisons,omitempty"`

	// Biased is the headline verdict: true when any context is unbalanced
	// w.r.t. the covariates (total effect) or the covariates ∪ mediators
	// (direct effect).
	Biased     bool       `json:"biased"`
	Covariates []string   `json:"covariates,omitempty"`
	Mediators  []string   `json:"mediators,omitempty"`
	CD         *CDSummary `json:"cd,omitempty"`

	DroppedAttrs []hypdb.Dropped    `json:"dropped_attrs,omitempty"`
	BiasTotal    []hypdb.BiasResult `json:"bias_total,omitempty"`
	BiasDirect   []hypdb.BiasResult `json:"bias_direct,omitempty"`

	Coarse []hypdb.Responsibility             `json:"coarse,omitempty"`
	Fine   map[string][]hypdb.FineExplanation `json:"fine,omitempty"`

	RewrittenTotal    *hypdb.Rewritten         `json:"rewritten_total,omitempty"`
	TotalComparisons  []hypdb.ComparisonReport `json:"total_comparisons,omitempty"`
	RewrittenDirect   *hypdb.Rewritten         `json:"rewritten_direct,omitempty"`
	DirectComparisons []hypdb.ComparisonReport `json:"direct_comparisons,omitempty"`

	Timing Timing `json:"timing"`
	// Degraded is true when the analysis was answered with at least one
	// remote shard missing (degraded reads): the statistics may rest on
	// partial counts and the report must be treated as stale.
	Degraded bool `json:"degraded,omitempty"`
	// Text is the human-readable report panel, as the CLI prints it.
	Text string `json:"text,omitempty"`
}

// ReportFromCore converts a library report into its wire form.
func ReportFromCore(r *hypdb.Report) *Report {
	if r == nil {
		return nil
	}
	biased := func(b hypdb.BiasResult) bool { return b.Biased }
	out := &Report{
		OriginalSQL:         r.OriginalSQL,
		RewrittenSQL:        r.RewrittenSQL,
		OriginalComparisons: r.OriginalComparisons,
		Biased:              slices.ContainsFunc(r.BiasTotal, biased) || slices.ContainsFunc(r.BiasDirect, biased),
		Covariates:          r.Covariates,
		Mediators:           r.Mediators,
		DroppedAttrs:        r.DroppedAttrs,
		BiasTotal:           r.BiasTotal,
		BiasDirect:          r.BiasDirect,
		Coarse:              r.Coarse,
		Fine:                r.Fine,
		RewrittenTotal:      r.RewrittenTotal,
		TotalComparisons:    r.TotalComparisons,
		RewrittenDirect:     r.RewrittenDirect,
		DirectComparisons:   r.DirectComparisons,
		Timing: Timing{
			DetectMS:  float64(r.Timing.Detect.Microseconds()) / 1000,
			ExplainMS: float64(r.Timing.Explain.Microseconds()) / 1000,
			ResolveMS: float64(r.Timing.Resolve.Microseconds()) / 1000,
		},
		Degraded: r.Degraded,
		Text:     r.String(),
	}
	if r.Answer != nil {
		out.Answer = nonNil(r.Answer.Rows)
	}
	if r.CD != nil {
		out.CD = &CDSummary{
			Parents:      r.CD.Parents,
			Boundary:     r.CD.Boundary,
			UsedFallback: r.CD.UsedFallback,
			Tests:        r.CD.Tests,
		}
	}
	return out
}

// nonNil returns s, or an empty slice when s is nil, for the wire fields
// that encode an empty list as [] rather than null.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// ---------------------------------------------------------------------------
// Service health and metrics

// Health is the GET /healthz response.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// AuditProgress reports a dataset's audit-sweep activity: completed sweeps
// plus cumulative candidate progress, so a poller watching /v1/metrics sees
// long sweeps advance candidate by candidate.
type AuditProgress struct {
	// Audits counts completed sweeps; Running counts sweeps in flight.
	Audits  int64 `json:"audits"`
	Running int64 `json:"running"`
	// CandidatesDone / CandidatesTotal accumulate across the dataset's
	// sweeps: total equals done once no sweep is running.
	CandidatesDone  int64 `json:"candidates_done"`
	CandidatesTotal int64 `json:"candidates_total"`
}

// PlannerStats reports a dataset session's batch-planner activity: how
// many lattice plans ran, the cuboids they primed and their estimated cell
// footprint, how many count demands the plans covered (and the subset
// served by marginalizing a strictly wider cuboid), and the backend round
// trips saved versus per-request priming.
type PlannerStats struct {
	Plans             int `json:"plans"`
	Cuboids           int `json:"cuboids"`
	CellsMaterialized int `json:"cells_materialized"`
	DemandsPlanned    int `json:"demands_planned"`
	DemandsProjected  int `json:"demands_projected"`
	RoundTripsSaved   int `json:"round_trips_saved"`
}

// DatasetMetrics is one dataset's slice of the service metrics.
type DatasetMetrics struct {
	Name     string        `json:"name"`
	Rows     int           `json:"rows"`
	Analyses int64         `json:"analyses"`
	Audit    AuditProgress `json:"audit"`
	Cache    CacheStats    `json:"cache"`
	Planner  PlannerStats  `json:"planner"`
	// Appends counts completed append requests; RowsAppended their
	// cumulative admitted rows. Both stay zero for unsharded datasets.
	Appends      int64 `json:"appends,omitempty"`
	RowsAppended int64 `json:"rows_appended,omitempty"`
	// CountsServed counts group-by counts requests this dataset answered on
	// the remote-shard transport (POST /v1/datasets/{name}/counts) — the
	// server side of a cluster. Zero when no coordinator queries this node.
	CountsServed int64 `json:"counts_served,omitempty"`
	// DegradedServes counts reads this dataset served degraded — answered
	// by the surviving shards after skipping an unavailable peer under
	// degraded reads. Zero for backends without degraded reads.
	DegradedServes uint64 `json:"degraded_serves,omitempty"`
	// Remote holds per-peer transport counters when this dataset is the
	// coordinator of remote shards (backend "remote") — the client side.
	Remote []PeerMetrics `json:"remote,omitempty"`
	// Admission reports the dataset's fair-queue activity.
	Admission AdmissionMetrics `json:"admission"`
}

// PeerMetrics is one remote shard peer's transport counters, as seen by
// the coordinating dataset.
type PeerMetrics struct {
	// URL is the peer's base URL; Version the snapshot version pinned when
	// the peer was opened.
	URL     string `json:"url"`
	Version uint64 `json:"version,omitempty"`
	// Healthy is the health-check loop's latest verdict.
	Healthy bool `json:"healthy"`
	// Requests counts counts calls issued to the peer, Retries the extra
	// attempts after failures, Errors the calls that failed for good, and
	// CountsServed the calls that returned counts.
	Requests     int64 `json:"requests"`
	Retries      int64 `json:"retries,omitempty"`
	Errors       int64 `json:"errors,omitempty"`
	CountsServed int64 `json:"counts_served,omitempty"`
	// LastRTTMillis and AvgRTTMillis measure successful round trips.
	LastRTTMillis float64 `json:"last_rtt_ms,omitempty"`
	AvgRTTMillis  float64 `json:"avg_rtt_ms,omitempty"`
}

// Metrics is the GET /v1/metrics response: service-wide counters backed by
// each dataset session's Stats.
type Metrics struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Datasets         int     `json:"datasets"`
	RequestsTotal    int64   `json:"requests_total"`
	RequestsInFlight int64   `json:"requests_in_flight"`
	AnalysesTotal    int64   `json:"analyses_total"`
	AuditsTotal      int64   `json:"audits_total"`
	AuditsInFlight   int64   `json:"audits_in_flight"`
	AppendsTotal     int64   `json:"appends_total"`
	RowsAppended     int64   `json:"rows_appended"`
	// CountsServed counts group-by counts requests answered on the
	// remote-shard transport across all datasets.
	CountsServed int64 `json:"counts_served,omitempty"`
	// RateLimited counts requests shed with 429 rate_limited by the
	// per-client admission rate limiter.
	RateLimited int64 `json:"rate_limited,omitempty"`
	// RateLimitedByClient breaks RateLimited down by client identity
	// (token name, or remote host in open mode). Identities beyond the
	// limiter's bucket cap aggregate under "other".
	RateLimitedByClient map[string]int64 `json:"rate_limited_by_client,omitempty"`
	// Admission aggregates the per-dataset fair-queue counters.
	Admission AdmissionMetrics `json:"admission"`
	Cache     CacheStats       `json:"cache"`
	Planner   PlannerStats     `json:"planner"`
	// Catalog reports the persistent catalog's restart/journal activity;
	// all zero when the server runs without -data-dir.
	Catalog    CatalogMetrics   `json:"catalog"`
	PerDataset []DatasetMetrics `json:"per_dataset,omitempty"`
}

// CatalogMetrics reports the persistent dataset catalog's activity: journal
// records fsync'd by this process, and what the boot-time replay recovered.
type CatalogMetrics struct {
	// JournalRecords counts catalog records (creates, appends, deletes)
	// this process appended to the journal.
	JournalRecords int64 `json:"journal_records"`
	// RecoveredDatasets counts datasets re-registered by Recover's journal
	// replay at boot; ReplayedAppends counts the append records re-applied.
	// Both are fixed after boot.
	RecoveredDatasets int64 `json:"recovered_datasets"`
	ReplayedAppends   int64 `json:"replayed_appends"`
}

// AdmissionMetrics reports a fair queue's admission activity: requests
// granted execution slots, requests currently waiting, and load sheds by
// reason. Once the server is idle, Queued returns to zero and the shed
// counters reconcile with the 429/503 responses clients observed.
type AdmissionMetrics struct {
	// Admitted counts requests granted their slots; Queued is the number
	// waiting right now.
	Admitted int64 `json:"admitted"`
	Queued   int   `json:"queued"`
	// ShedQueueFull / ShedDeadline / ShedDraining count typed rejections:
	// bounded queue depth exceeded, a request deadline that expired (or
	// could not be met) while queued, and shutdown draining.
	ShedQueueFull int64 `json:"shed_queue_full,omitempty"`
	ShedDeadline  int64 `json:"shed_deadline,omitempty"`
	ShedDraining  int64 `json:"shed_draining,omitempty"`
	// Cancelled counts waiters whose client went away while queued.
	Cancelled int64 `json:"cancelled,omitempty"`
}
