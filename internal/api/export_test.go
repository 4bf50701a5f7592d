package api

// Patterns exposes the one route table to the surface-identity tests
// in api_test, which must import the daemons built on this package.
func Patterns() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.pattern
	}
	return out
}
