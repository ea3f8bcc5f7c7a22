package hypdb_test

import (
	"context"
	"strings"
	"testing"

	"hypdb"
	"hypdb/internal/datagen"
)

// TestPublicAPIQuickstart exercises the facade end to end the way the
// README's quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	b := hypdb.NewBuilder("T", "Z", "Y")
	// A small confounded dataset: Z drives both T and Y; T also has a
	// direct effect.
	patterns := []struct {
		t, z, y string
		n       int
	}{
		{"a", "0", "0", 300}, {"a", "0", "1", 100},
		{"a", "1", "0", 40}, {"a", "1", "1", 60},
		{"b", "0", "0", 60}, {"b", "0", "1", 40},
		{"b", "1", "0", 120}, {"b", "1", "1", 280},
	}
	for _, p := range patterns {
		for i := 0; i < p.n; i++ {
			if err := b.Add(p.t, p.z, p.y); err != nil {
				t.Fatal(err)
			}
		}
	}
	tab, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hypdb.Open(tab).Analyze(context.Background(),
		hypdb.Query{Treatment: "T", Outcomes: []string{"Y"}}, hypdb.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BiasTotal) == 0 || !rep.BiasTotal[0].Biased {
		t.Error("confounded quickstart data not flagged as biased")
	}
	if !strings.Contains(rep.String(), "BIASED") {
		t.Error("report text missing bias verdict")
	}
}

func TestPublicAPIPieces(t *testing.T) {
	tab, err := datagen.Berkeley(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	db := hypdb.Open(tab)
	q := datagen.BerkeleyQuery()
	ans, err := db.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows = %d", len(ans.Rows))
	}
	rw, err := db.RewriteTotal(ctx, q, []string{"Department"})
	if err != nil {
		t.Fatal(err)
	}
	comps, err := rw.Compare()
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Diffs[0] >= 0 {
		t.Error("Berkeley reversal not reproduced through the facade")
	}
	bias, err := db.DetectBias(ctx, "Gender", nil, []string{"Department"}, hypdb.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bias[0].Biased {
		t.Error("Berkeley query not flagged biased w.r.t. Department")
	}
	cd, err := db.DiscoverCovariates(ctx, "Gender", []string{"Department", "Accepted"},
		[]string{"Accepted"}, hypdb.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if cd.Target != "Gender" {
		t.Errorf("CD target = %s", cd.Target)
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	tab, err := datagen.Cancer(500, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cancer.csv"
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := hypdb.ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
		t.Errorf("round trip shape %dx%d", back.NumRows(), back.NumCols())
	}
}
