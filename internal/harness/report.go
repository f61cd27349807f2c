package harness

import "fmt"

// Summary returns a one-line headline for a Figure 7 matrix, in the shape
// the paper's abstract quotes ("the overhead of heap and stack safety is 2%
// compared to 40% for AddressSanitizer").
func (m *Matrix) Summary() string {
	return fmt.Sprintf("REST secure full %.1f%% vs ASan %.1f%% (debug %.1f%%, perfect-hw gap %.1f pts)",
		m.WtdAriMeanOverhead("secure-full"),
		m.WtdAriMeanOverhead("asan"),
		m.WtdAriMeanOverhead("debug-full"),
		m.WtdAriMeanOverhead("secure-full")-m.WtdAriMeanOverhead("perfecthw-full"))
}
