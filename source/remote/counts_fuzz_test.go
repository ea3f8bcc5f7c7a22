package remote

import (
	"encoding/json"
	"errors"
	"testing"

	"hypdb/internal/hyperr"
)

// FuzzCountsResponse feeds arbitrary counts responses for a two-attribute
// request through countsFrom. The property: it either fails with
// ErrPeerUnavailable, or returns counts whose total is the sum of the
// response's counts, every group key holding in-range codes. Seeds live in
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
		want, got := 0, 0
		for _, c := range resp.Counts {
			want += c
		}
		for k, c := range counts {
			got += c
			for j, card := range cards {
				if code := k.Field(j); code < 0 || int(code) >= card {
					t.Fatalf("key %q: code %d of attribute %d out of range (card %d)", k, code, j, card)
				}
			}
		}
		if got != want {
			t.Fatalf("counts total %d, response total %d", got, want)
		}
	})
}
