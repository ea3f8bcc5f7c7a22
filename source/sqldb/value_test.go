package sqldb

import "testing"

// TestValueInt: a count the driver sends as text is read as a whole
// decimal integer or rejected, never truncated at the first non-digit.
func TestValueInt(t *testing.T) {
	for _, tc := range []struct {
		in   any
		want int
		ok   bool
	}{
		{int64(12), 12, true},
		{7, 7, true},
		{"12", 12, true},
		{[]byte("4526"), 4526, true},
		{"12.5", 0, false},
		{"1e3", 0, false},
		{"12abc", 0, false},
		{[]byte("12.5"), 0, false},
		{[]byte("1e3"), 0, false},
		{[]byte("12abc"), 0, false},
		{"", 0, false},
		{" 12", 0, false},
		{3.0, 0, false},
	} {
		got, err := valueInt(tc.in)
		if (err == nil) != tc.ok || tc.ok && got != tc.want {
			t.Errorf("valueInt(%#v) = (%d, %v), want %d, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
