package remote

import (
	"encoding/json"
	"errors"
	"testing"

	"hypdb/internal/hyperr"
)

// FuzzCountsResponse feeds arbitrary counts responses for a two-attribute
// request through countsFrom. The property: it either fails with
// ErrPeerUnavailable, or returns cells in strictly ascending cell order
// (first attribute fastest) that equal the response's counts summed per
// group, zero sums dropped, every code in range. Seeds live in
// testdata/fuzz/FuzzCountsResponse.
func FuzzCountsResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, cardA, cardB uint8) {
		var resp CountsResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		cards := []int{int(cardA), int(cardB)}
		counts, err := countsFrom("fuzz", &resp, []string{"a", "b"}, cards)
		if err != nil {
			if !errors.Is(err, hyperr.ErrPeerUnavailable) {
				t.Fatalf("error %v is not ErrPeerUnavailable", err)
			}
			return
		}
		want := make(map[int]int)
		for i, g := range resp.Groups {
			want[int(g[0])+cards[0]*int(g[1])] += resp.Counts[i]
		}
		for cell, c := range want {
			if c == 0 {
				delete(want, cell)
			}
		}
		prev, total := -1, 0
		counts.EachCell(func(codes []int32, c int) {
			for j, card := range cards {
				if codes[j] < 0 || int(codes[j]) >= card {
					t.Fatalf("cell %v: code of attribute %d out of range (card %d)", codes, j, card)
				}
			}
			cell := int(codes[0]) + cards[0]*int(codes[1])
			if cell <= prev {
				t.Fatalf("cell %v (index %d) after index %d: not in strictly ascending cell order", codes, cell, prev)
			}
			prev = cell
			if w, ok := want[cell]; !ok || c != w {
				t.Fatalf("cell %v holds %d, response sums to %d", codes, c, w)
			}
			delete(want, cell)
			total += c
		})
		if len(want) > 0 {
			t.Fatalf("response groups missing from the decoded cells: %v", want)
		}
		if total != counts.Total {
			t.Fatalf("cells sum to %d, Total is %d", total, counts.Total)
		}
	})
}

// FuzzSchemaHandshake feeds arbitrary handshake responses through
// fromSchema. The property: it either fails with ErrPeerUnavailable, or
// returns a relation whose attributes are distinct, each with a dictionary
// of distinct labels, over a non-negative row count. Seeds live in
// testdata/fuzz/FuzzSchemaHandshake.
func FuzzSchemaHandshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp CountsResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		rel, err := fromSchema(&peer{base: "fuzz", dataset: "D"}, &resp, nil, false)
		if err != nil {
			if !errors.Is(err, hyperr.ErrPeerUnavailable) {
				t.Fatalf("error %v is not ErrPeerUnavailable", err)
			}
			return
		}
		if rel.rows < 0 {
			t.Fatalf("handshake accepted %d rows", rel.rows)
		}
		attrs := make(map[string]bool)
		for _, a := range rel.Attributes() {
			if attrs[a] {
				t.Fatalf("handshake accepted attribute %q twice", a)
			}
			attrs[a] = true
			labels, err := rel.Labels(t.Context(), a)
			if err != nil {
				t.Fatalf("Labels(%q): %v", a, err)
			}
			seen := make(map[string]bool)
			for _, l := range labels {
				if seen[l] {
					t.Fatalf("handshake accepted label %q of %q twice", l, a)
				}
				seen[l] = true
			}
		}
	})
}
