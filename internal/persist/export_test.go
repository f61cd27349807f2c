package persist

// The internal helpers the HTTP store's tests (httpbackend_test.go, package
// persist_test) share with this package's own tests.
var (
	BackendConformance = backendConformance
	WaitFor            = waitFor
)
