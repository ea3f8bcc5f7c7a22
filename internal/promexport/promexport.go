// Package promexport renders the service's metrics snapshot (api.Metrics,
// the GET /v1/metrics payload) in the Prometheus text exposition format for
// GET /metrics. Both endpoints derive from the same snapshot struct — the
// JSON encoder serializes it, Render flattens it into families — so the two
// views cannot drift: a counter exists in both or in neither. One ordered
// table, registry, names each family and the api.Metrics JSON paths it
// renders; the parity test in this package walks api.Metrics by reflection
// and fails on any numeric field the table leaves out.
//
// Family naming: service-wide counters are unlabeled (hypdb_requests_total),
// per-dataset counters carry a dataset label (hypdb_dataset_analyses_total),
// per-peer transport counters carry dataset and peer labels
// (hypdb_peer_requests_total), admission sheds fold into one family with a
// reason label, and per-client rate-limit sheds carry a token label. Counter
// families end in _total and are monotonic within one server process;
// catalog replay at boot re-applies journaled appends directly against the
// storage backend without touching the request counters, so a restarted
// server starts its counters at zero instead of replaying history into them.
package promexport

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"hypdb/api"
)

// ContentType is the /metrics response content type (the Prometheus text
// exposition format, version 0.0.4).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Counter and gauge are the two metric types this registry renders.
const (
	TypeCounter = "counter"
	TypeGauge   = "gauge"
)

// Label is one name="value" pair of a series.
type Label struct {
	Name, Value string
}

// Series is one sample line of a family: its ordered label set and value.
type Series struct {
	Labels []Label
	Value  float64
}

// Family is one metric family: every series sharing a name, HELP and TYPE.
type Family struct {
	Name, Type, Help string
	Series           []Series
}

// row is one family of the registry: its name, type and help, and the
// api.Metrics JSON paths (space-separated) whose values it renders. A path
// names struct nesting joined with dots; the per_dataset. prefix renders one
// series per dataset with a dataset label, per_dataset.remote. one per peer
// with dataset and peer labels. Values convert by fixed rules: a bool is
// 0/1, a *_ms field is rendered in seconds, a string-keyed map is one series
// per key under a token label, and a shed_<reason> field carries a reason
// label.
type row struct {
	name, typ, paths, help string
}

// registry is the single JSON↔Prometheus mapping, in rendering order.
var registry = []row{
	{"hypdb_uptime_seconds", TypeGauge, "uptime_seconds", "Seconds since the server process started."},
	{"hypdb_datasets", TypeGauge, "datasets", "Registered datasets."},
	{"hypdb_requests_total", TypeCounter, "requests_total", "HTTP requests received."},
	{"hypdb_requests_in_flight", TypeGauge, "requests_in_flight", "HTTP requests currently being served."},
	{"hypdb_analyses_total", TypeCounter, "analyses_total", "Analyze requests served, batch items included."},
	{"hypdb_audits_total", TypeCounter, "audits_total", "Completed audit sweeps."},
	{"hypdb_audits_in_flight", TypeGauge, "audits_in_flight", "Audit sweeps currently running."},
	{"hypdb_appends_total", TypeCounter, "appends_total", "Completed append requests."},
	{"hypdb_rows_appended_total", TypeCounter, "rows_appended", "Rows admitted by append requests."},
	{"hypdb_counts_served_total", TypeCounter, "counts_served", "Group-by counts requests answered on the remote-shard transport."},
	{"hypdb_rate_limited_total", TypeCounter, "rate_limited", "Requests shed with 429 by the per-client rate limiter."},
	{"hypdb_client_rate_limited_total", TypeCounter, "rate_limited_by_client", "Requests shed with 429 by the per-client rate limiter, by client identity."},
	{"hypdb_admission_admitted_total", TypeCounter, "admission.admitted", "Requests granted execution slots by the fair queues."},
	{"hypdb_admission_queued", TypeGauge, "admission.queued", "Requests waiting in the fair queues right now."},
	{"hypdb_admission_sheds_total", TypeCounter, "admission.shed_queue_full admission.shed_deadline admission.shed_draining", "Typed admission rejections, by reason."},
	{"hypdb_admission_cancelled_total", TypeCounter, "admission.cancelled", "Queued requests whose client went away while waiting."},
	{"hypdb_cd_computes_total", TypeCounter, "cache.cd_computes", "Covariate discoveries actually executed."},
	{"hypdb_cd_hits_total", TypeCounter, "cache.cd_hits", "Covariate discoveries answered from the memoized cache."},
	{"hypdb_planner_plans_total", TypeCounter, "planner.plans", "Lattice batch plans executed."},
	{"hypdb_planner_cuboids_total", TypeCounter, "planner.cuboids", "Cuboids materialized by batch plans."},
	{"hypdb_planner_cells_materialized_total", TypeCounter, "planner.cells_materialized", "Estimated cells materialized by batch plans."},
	{"hypdb_planner_demands_planned_total", TypeCounter, "planner.demands_planned", "Count demands covered by batch plans."},
	{"hypdb_planner_demands_projected_total", TypeCounter, "planner.demands_projected", "Count demands served by marginalizing a wider cuboid."},
	{"hypdb_planner_round_trips_saved_total", TypeCounter, "planner.round_trips_saved", "Backend round trips saved versus per-request priming."},
	{"hypdb_catalog_journal_records_total", TypeCounter, "catalog.journal_records", "Catalog journal records fsync'd by this process."},
	{"hypdb_catalog_recovered_datasets", TypeGauge, "catalog.recovered_datasets", "Datasets re-registered by the boot-time journal replay."},
	{"hypdb_catalog_replayed_appends", TypeGauge, "catalog.replayed_appends", "Append records re-applied by the boot-time journal replay."},
	{"hypdb_dataset_rows", TypeGauge, "per_dataset.rows", "Current rows of the dataset."},
	{"hypdb_dataset_analyses_total", TypeCounter, "per_dataset.analyses", "Analyze requests served over the dataset."},
	{"hypdb_dataset_audits_total", TypeCounter, "per_dataset.audit.audits", "Completed audit sweeps over the dataset."},
	{"hypdb_dataset_audits_running", TypeGauge, "per_dataset.audit.running", "Audit sweeps over the dataset running right now."},
	{"hypdb_dataset_audit_candidates_done_total", TypeCounter, "per_dataset.audit.candidates_done", "Audit candidates tested across the dataset's sweeps."},
	{"hypdb_dataset_audit_candidates_planned", TypeGauge, "per_dataset.audit.candidates_total", "Audit candidates planned across the dataset's sweeps; a failed sweep's unfinished remainder is deducted."},
	{"hypdb_dataset_cd_computes_total", TypeCounter, "per_dataset.cache.cd_computes", "Covariate discoveries executed for the dataset."},
	{"hypdb_dataset_cd_hits_total", TypeCounter, "per_dataset.cache.cd_hits", "Covariate discoveries served from the dataset's cache."},
	{"hypdb_dataset_planner_plans_total", TypeCounter, "per_dataset.planner.plans", "Lattice batch plans executed for the dataset."},
	{"hypdb_dataset_planner_cuboids_total", TypeCounter, "per_dataset.planner.cuboids", "Cuboids materialized for the dataset."},
	{"hypdb_dataset_planner_cells_materialized_total", TypeCounter, "per_dataset.planner.cells_materialized", "Estimated cells materialized for the dataset."},
	{"hypdb_dataset_planner_demands_planned_total", TypeCounter, "per_dataset.planner.demands_planned", "Count demands covered by the dataset's batch plans."},
	{"hypdb_dataset_planner_demands_projected_total", TypeCounter, "per_dataset.planner.demands_projected", "Count demands served by marginalization for the dataset."},
	{"hypdb_dataset_planner_round_trips_saved_total", TypeCounter, "per_dataset.planner.round_trips_saved", "Backend round trips saved for the dataset."},
	{"hypdb_dataset_appends_total", TypeCounter, "per_dataset.appends", "Completed append requests for the dataset."},
	{"hypdb_dataset_rows_appended_total", TypeCounter, "per_dataset.rows_appended", "Rows admitted by the dataset's appends."},
	{"hypdb_dataset_counts_served_total", TypeCounter, "per_dataset.counts_served", "Counts requests the dataset answered on the remote-shard transport."},
	{"hypdb_dataset_degraded_serves_total", TypeCounter, "per_dataset.degraded_serves", "Reads served degraded: surviving shards answered after a peer was skipped."},
	{"hypdb_dataset_admission_admitted_total", TypeCounter, "per_dataset.admission.admitted", "Requests granted execution slots on the dataset's fair queue."},
	{"hypdb_dataset_admission_queued", TypeGauge, "per_dataset.admission.queued", "Requests waiting in the dataset's fair queue right now."},
	{"hypdb_dataset_admission_sheds_total", TypeCounter, "per_dataset.admission.shed_queue_full per_dataset.admission.shed_deadline per_dataset.admission.shed_draining", "Typed admission rejections on the dataset's fair queue, by reason."},
	{"hypdb_dataset_admission_cancelled_total", TypeCounter, "per_dataset.admission.cancelled", "Queued requests on the dataset whose client went away."},
	{"hypdb_peer_healthy", TypeGauge, "per_dataset.remote.healthy", "Health-check verdict for the remote peer: 1 healthy, 0 down."},
	{"hypdb_peer_pinned_version", TypeGauge, "per_dataset.remote.version", "Snapshot version pinned at the peer's registration handshake."},
	{"hypdb_peer_requests_total", TypeCounter, "per_dataset.remote.requests", "Counts calls issued to the remote peer."},
	{"hypdb_peer_retries_total", TypeCounter, "per_dataset.remote.retries", "Extra attempts after failed calls to the remote peer."},
	{"hypdb_peer_errors_total", TypeCounter, "per_dataset.remote.errors", "Calls to the remote peer that failed past the retry budget."},
	{"hypdb_peer_counts_served_total", TypeCounter, "per_dataset.remote.counts_served", "Calls to the remote peer that returned counts."},
	{"hypdb_peer_last_rtt_seconds", TypeGauge, "per_dataset.remote.last_rtt_ms", "Round-trip time of the last successful call to the peer."},
	{"hypdb_peer_avg_rtt_seconds", TypeGauge, "per_dataset.remote.avg_rtt_ms", "Mean round-trip time of successful calls to the peer."},
}

// scope is where a path's values live: the snapshot itself, each
// per-dataset entry, or each peer of each dataset.
type scope int

const (
	scopeService scope = iota
	scopeDataset
	scopePeer
)

// field is one compiled registry path.
type field struct {
	path   string
	scope  scope
	index  []int // reflect field index within the scope's struct
	reason string
	millis bool
}

// fields holds each registry row's compiled paths, aligned with registry.
// Compiling at init panics on a path that names no api.Metrics field, so a
// row can only render the field it names.
var fields = compile()

func compile() [][]field {
	out := make([][]field, len(registry))
	for i, r := range registry {
		for _, path := range strings.Fields(r.paths) {
			f := field{path: path, millis: strings.HasSuffix(path, "_ms")}
			rest, typ := path, reflect.TypeOf(api.Metrics{})
			if p, ok := strings.CutPrefix(path, "per_dataset.remote."); ok {
				f.scope, rest, typ = scopePeer, p, reflect.TypeOf(api.PeerMetrics{})
			} else if p, ok := strings.CutPrefix(path, "per_dataset."); ok {
				f.scope, rest, typ = scopeDataset, p, reflect.TypeOf(api.DatasetMetrics{})
			}
			f.index = fieldIndex(typ, rest)
			if reason, ok := strings.CutPrefix(path[strings.LastIndexByte(path, '.')+1:], "shed_"); ok {
				f.reason = reason
			}
			out[i] = append(out[i], f)
		}
	}
	return out
}

// fieldIndex resolves a dotted JSON path within typ to a field index.
func fieldIndex(typ reflect.Type, path string) []int {
	var index []int
	for _, name := range strings.Split(path, ".") {
		found := false
		for i := 0; !found && i < typ.NumField(); i++ {
			if tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); tag == name {
				index, typ, found = append(index, i), typ.Field(i).Type, true
			}
		}
		if !found {
			panic("promexport: registry path names no api.Metrics field: " + path)
		}
	}
	return index
}

// builder accumulates one family's series.
type builder struct {
	fam Family
	// seen indexes series by label set so a pathological duplicate (the
	// same peer URL mounted twice, say) merges instead of emitting
	// duplicate series: counters add, gauges keep the last value.
	seen map[string]int
}

// add appends the series a field value renders; labels alternate name,
// value.
func (b *builder) add(f field, v reflect.Value, labels ...string) {
	if f.reason != "" {
		labels = append(labels, "reason", f.reason)
	}
	switch v.Kind() {
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			b.series(float64(iter.Value().Int()), append(labels, "token", iter.Key().String()))
		}
		return
	case reflect.Bool:
		b.series(b2f(v.Bool()), labels)
	case reflect.Int, reflect.Int64:
		b.series(float64(v.Int()), labels)
	case reflect.Uint64:
		b.series(float64(v.Uint()), labels)
	case reflect.Float64:
		x := v.Float()
		if f.millis {
			x /= 1000
		}
		b.series(x, labels)
	default:
		panic("promexport: unsupported field kind " + v.Kind().String() + " at " + f.path)
	}
}

func (b *builder) series(value float64, labels []string) {
	ls := make([]Label, 0, len(labels)/2)
	key := ""
	for i := 0; i+1 < len(labels); i += 2 {
		ls = append(ls, Label{Name: labels[i], Value: labels[i+1]})
		key += "\x00" + labels[i] + "\x00" + labels[i+1]
	}
	if i, ok := b.seen[key]; ok {
		if b.fam.Type == TypeCounter {
			b.fam.Series[i].Value += value
		} else {
			b.fam.Series[i].Value = value
		}
		return
	}
	b.seen[key] = len(b.fam.Series)
	b.fam.Series = append(b.fam.Series, Series{Labels: ls, Value: value})
}

func labelKey(ls []Label) string {
	var sb strings.Builder
	for _, l := range ls {
		sb.WriteString(l.Value)
		sb.WriteByte(0)
	}
	return sb.String()
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// collect flattens a metrics snapshot into its Prometheus families, in
// registry order, each family's series sorted by label values. Families
// with no series (per-dataset families on an empty registry, say) are
// omitted.
func collect(m api.Metrics) []Family {
	out := make([]Family, 0, len(registry))
	for i, r := range registry {
		b := builder{fam: Family{Name: r.name, Type: r.typ, Help: r.help}, seen: make(map[string]int)}
		for _, f := range fields[i] {
			switch f.scope {
			case scopeService:
				b.add(f, reflect.ValueOf(m).FieldByIndex(f.index))
			case scopeDataset:
				for _, d := range m.PerDataset {
					b.add(f, reflect.ValueOf(d).FieldByIndex(f.index), "dataset", d.Name)
				}
			case scopePeer:
				for _, d := range m.PerDataset {
					for _, p := range d.Remote {
						b.add(f, reflect.ValueOf(p).FieldByIndex(f.index), "dataset", d.Name, "peer", p.URL)
					}
				}
			}
		}
		if len(b.fam.Series) == 0 {
			continue
		}
		sort.SliceStable(b.fam.Series, func(i, j int) bool {
			return labelKey(b.fam.Series[i].Labels) < labelKey(b.fam.Series[j].Labels)
		})
		out = append(out, b.fam)
	}
	return out
}

// Render writes the snapshot's families in the Prometheus text exposition
// format. The output is deterministic for a given snapshot: families render
// in registry order, series sorted by label values.
func Render(w io.Writer, m api.Metrics) error {
	for _, f := range collect(m) {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Series {
			if err := renderSeries(w, f.Name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderSeries(w io.Writer, name string, s Series) error {
	var sb strings.Builder
	sb.WriteString(name)
	if len(s.Labels) > 0 {
		sb.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatValue(s.Value))
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value: integral values without a decimal
// point or exponent, everything else in Go's shortest 'f' form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
