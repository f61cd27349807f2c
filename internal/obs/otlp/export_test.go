package otlp

// The fixtures the HTTP export surface's tests (server_test.go, package
// otlp_test) share with this package's own tests.
var (
	SampleRegistry = sampleRegistry
	T0, T1         = t0, t1
)
