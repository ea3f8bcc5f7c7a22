package datagen

import (
	"context"

	"testing"

	"hypdb/internal/core"
	"hypdb/internal/dataset"
	"hypdb/source/mem"
)

// conditional computes P(b=bv | a=av) on the table.
func conditional(t *testing.T, tab *dataset.Table, a, av, b, bv string) float64 {
	t.Helper()
	ac, err := tab.Column(a)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := tab.Column(b)
	if err != nil {
		t.Fatal(err)
	}
	num, den := 0, 0
	for i := 0; i < tab.NumRows(); i++ {
		if ac.Value(i) != av {
			continue
		}
		den++
		if bc.Value(i) == bv {
			num++
		}
	}
	if den == 0 {
		t.Fatalf("no rows with %s=%s", a, av)
	}
	return float64(num) / float64(den)
}

// TestFlightConfoundingStructure checks the distributions behind Fig 1(b):
// AA concentrates at the low-delay airports, UA at high-delay ROC.
func TestFlightConfoundingStructure(t *testing.T) {
	tab, err := Flight(30000, 7)
	if err != nil {
		t.Fatal(err)
	}
	view, err := tab.Select(dataset.And{
		dataset.In{Attr: "Carrier", Values: []string{"AA", "UA"}},
		dataset.In{Attr: "Airport", Values: []string{"COS", "MFE", "MTJ", "ROC"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := conditional(t, view, "Carrier", "AA", "Airport", "COS"); p < 0.25 {
		t.Errorf("P(COS|AA) = %v, want AA concentrated at COS", p)
	}
	if p := conditional(t, view, "Carrier", "UA", "Airport", "ROC"); p < 0.45 {
		t.Errorf("P(ROC|UA) = %v, want UA concentrated at ROC", p)
	}
	if p := conditional(t, view, "Carrier", "AA", "Airport", "ROC"); p > 0.15 {
		t.Errorf("P(ROC|AA) = %v, want AA rare at ROC", p)
	}
	// ROC must be the high-delay airport, COS the low-delay one.
	rocDelay := conditional(t, view, "Airport", "ROC", "Delayed", "1")
	cosDelay := conditional(t, view, "Airport", "COS", "Delayed", "1")
	if rocDelay <= cosDelay+0.1 {
		t.Errorf("delay rates ROC=%v COS=%v, want a clear gap", rocDelay, cosDelay)
	}
}

// TestFlightCDFindsAirportAndYear: end-to-end covariate discovery on the
// flight generator must recover the planted confounders.
func TestFlightCDFindsAirportAndYear(t *testing.T) {
	tab, err := Flight(FlightRows, 9)
	if err != nil {
		t.Fatal(err)
	}
	view, err := tab.Select(FlightQuery().Where)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict candidates to the causal core to keep the test fast; the
	// full 101-column pass is exercised by cmd/experiments fig1.
	cands := []string{"Airport", "Year", "Month", "DayOfWeek", "DayofMonth", "Dest", "DepTimeBlk", "Delayed"}
	res, err := core.DiscoverCovariates(context.Background(), mem.New(view), "Carrier", cands, []string{"Delayed"},
		core.Config{Method: core.ChiSquaredMethod, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, p := range res.Parents {
		got[p] = true
	}
	if !got["Airport"] || !got["Year"] {
		t.Errorf("Parents(Carrier) = %v, want Airport and Year", res.Parents)
	}
	if got["Delayed"] {
		t.Errorf("outcome leaked into covariates: %v", res.Parents)
	}
}
