package promexport

// Collect exposes collect to the external tests.
var Collect = collect

// FieldFamilies returns the api.Metrics JSON-field-path → family-name
// mapping the registry declares, for the parity test's coverage check.
func FieldFamilies() map[string]string {
	out := make(map[string]string)
	for i, r := range registry {
		for _, f := range fields[i] {
			out[f.path] = r.name
		}
	}
	return out
}
