package core

import (
	"context"
	"strings"
	"testing"

	"hypdb/internal/query"
	"hypdb/source/mem"
)

func TestEffectBoundsBracketsTruth(t *testing.T) {
	tab := simpsonData(t, 12000, 71)
	q := query.Query{Treatment: "T", Outcomes: []string{"Y"}}
	res, err := EffectBounds(context.Background(), mem.New(tab), q, []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	// Two sets evaluated: {} (raw, positive diff) and {Z} (adjusted,
	// negative diff). The bounds must bracket zero — the signature of the
	// Simpson ambiguity.
	if res.Sets != 2 {
		t.Fatalf("sets = %d, want 2", res.Sets)
	}
	if !(res.Lower < 0 && res.Upper > 0) {
		t.Errorf("bounds [%v, %v] do not bracket 0", res.Lower, res.Upper)
	}
	if len(res.LowerSet) != 1 || res.LowerSet[0] != "Z" {
		t.Errorf("LowerSet = %v, want [Z] (adjustment flips the sign)", res.LowerSet)
	}
	if len(res.UpperSet) != 0 {
		t.Errorf("UpperSet = %v, want the raw difference", res.UpperSet)
	}
}

func TestEffectBoundsValidation(t *testing.T) {
	tab := simpsonData(t, 1000, 73)
	bad := query.Query{Treatment: "missing", Outcomes: []string{"Y"}}
	if _, err := EffectBounds(context.Background(), mem.New(tab), bad, nil); err == nil {
		t.Error("invalid query accepted")
	}
	many := make([]string, 21)
	for i := range many {
		many[i] = "Z"
	}
	q := query.Query{Treatment: "T", Outcomes: []string{"Y"}}
	if _, err := EffectBounds(context.Background(), mem.New(tab), q, many); err == nil || !strings.Contains(err.Error(), "trim") {
		t.Errorf("21 candidates: err = %v, want one that says to trim them", err)
	}
}
