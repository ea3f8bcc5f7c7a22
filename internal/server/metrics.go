package server

import (
	"bytes"
	"net/http"
	"sort"

	"hypdb/api"
	"hypdb/internal/promexport"
)

// metricsSnapshot assembles the service-wide counters. It is the single
// registry behind both metrics views: handleMetrics JSON-encodes the
// snapshot and handlePromMetrics renders the same snapshot through
// promexport, so the two endpoints cannot drift — a counter exists in both
// or in neither.
func (s *Server) metricsSnapshot() api.Metrics {
	entries := s.entries()
	out := api.Metrics{
		UptimeSeconds:       s.now().Sub(s.started).Seconds(),
		Datasets:            len(entries),
		RequestsTotal:       s.requests.Load(),
		RequestsInFlight:    s.inFlight.Load(),
		AnalysesTotal:       s.analyses.Load(),
		AuditsTotal:         s.audits.Load(),
		AuditsInFlight:      s.auditsInFlight.Load(),
		AppendsTotal:        s.appends.Load(),
		RowsAppended:        s.rowsAppended.Load(),
		CountsServed:        s.countsServed.Load(),
		RateLimited:         s.rateLimited.Load(),
		RateLimitedByClient: s.limiter.DeniedByClient(),
		Catalog: api.CatalogMetrics{
			RecoveredDatasets: s.recoveredDatasets.Load(),
			ReplayedAppends:   s.replayedAppends.Load(),
		},
	}
	if s.journal != nil {
		out.Catalog.JournalRecords = s.journal.Appended()
	}
	for _, e := range entries {
		st := e.db.Stats()
		out.Cache.CDComputes += st.CDComputes
		out.Cache.CDHits += st.CDHits
		planner := api.PlannerStats{
			Plans:           st.Planner.Plans,
			Cuboids:         st.Planner.Cuboids,
			RoundTripsSaved: st.Planner.RoundTripsSaved,
		}
		out.Planner.Plans += planner.Plans
		out.Planner.Cuboids += planner.Cuboids
		out.Planner.RoundTripsSaved += planner.RoundTripsSaved
		qs := e.queue.Stats()
		adm := api.AdmissionMetrics{
			Admitted:      qs.Admitted,
			Queued:        qs.Queued,
			ShedQueueFull: qs.ShedFull,
			ShedDeadline:  qs.ShedDeadline,
			ShedDraining:  qs.ShedDraining,
			Cancelled:     qs.Cancelled,
		}
		out.Admission.Admitted += adm.Admitted
		out.Admission.Queued += adm.Queued
		out.Admission.ShedQueueFull += adm.ShedQueueFull
		out.Admission.ShedDeadline += adm.ShedDeadline
		out.Admission.ShedDraining += adm.ShedDraining
		out.Admission.Cancelled += adm.Cancelled
		dm := api.DatasetMetrics{
			Name:           e.name,
			Rows:           int(e.rows.Load()),
			Analyses:       e.analyses.Load(),
			Appends:        e.appends.Load(),
			RowsAppended:   e.rowsAppended.Load(),
			CountsServed:   e.countsServed.Load(),
			DegradedServes: e.db.DegradedServes(),
			Admission:      adm,
			Audit: api.AuditProgress{
				Audits:          e.audits.Load(),
				Running:         e.auditsRunning.Load(),
				CandidatesDone:  e.auditCandsDone.Load(),
				CandidatesTotal: e.auditCandsTotal.Load(),
			},
			Cache:   api.CacheStats{CDComputes: st.CDComputes, CDHits: st.CDHits},
			Planner: planner,
		}
		for _, p := range e.db.RemotePeers() {
			dm.Remote = append(dm.Remote, api.PeerMetrics{
				URL: p.URL, Version: p.Version, Healthy: p.Healthy,
				Requests: p.Requests, Retries: p.Retries, Errors: p.Errors,
				CountsServed:  p.CountsServed,
				LastRTTMillis: float64(p.LastRTT.Microseconds()) / 1000,
				AvgRTTMillis:  float64(p.AvgRTT.Microseconds()) / 1000,
			})
		}
		out.PerDataset = append(out.PerDataset, dm)
	}
	sort.Slice(out.PerDataset, func(i, j int) bool { return out.PerDataset[i].Name < out.PerDataset[j].Name })
	return out
}

// handleMetrics serves GET /v1/metrics: the snapshot as JSON.
func (s *Server) handleMetrics(*call, *noBody) (int, any, *api.Error) {
	return http.StatusOK, s.metricsSnapshot(), nil
}

// handlePromMetrics serves GET /metrics: the same snapshot in the
// Prometheus text exposition format.
func (s *Server) handlePromMetrics(*call, *noBody) (int, any, *api.Error) {
	var buf bytes.Buffer
	if err := promexport.Render(&buf, s.metricsSnapshot()); err != nil {
		return 0, nil, &api.Error{
			Status: http.StatusInternalServerError, Code: api.CodeInternal,
			Message: "rendering metrics: " + err.Error(),
		}
	}
	return http.StatusOK, exposition(buf.Bytes()), nil
}
