package core

// calibration is the prior's table: per representative mix (percent of
// point lookups, short scans, long scans, writes) and cache share, the
// static action with the fewest block reads per op — settings within 1 % of
// the fewest tie, and the tie goes to fewer range-cache evictions per op.
// Produced by the controlled-experiment sweep at default scale (50,000 keys
// × 100 B, 150,000 warm-up and 60,000 measured ops per setting, seed 1;
// internal/harness/calibrate.go) and pasted verbatim from
//
//	go run ./cmd/adbench -exp calibrate
//
// Rows of one mix are contiguous and ordered by share.
var calibration = []calibRow{
	// point short long write  share  ratio thr  a      b
	{100, 0, 0, 0, 0.01, 1, 0.1, 0.125, 0.5},    // PointLookup: 0.579 reads/op, 0.001 range evictions/op, 13 runs
	{100, 0, 0, 0, 0.02, 1, 0.1, 0.125, 0.5},    // PointLookup: 0.536 reads/op, 0.000 range evictions/op, 13 runs
	{100, 0, 0, 0, 0.05, 0.75, 0.1, 0.125, 0.5}, // PointLookup: 0.504 reads/op, 0.000 range evictions/op, 16 runs
	{100, 0, 0, 0, 0.10, 1, 0, 0.125, 0.5},      // PointLookup: 0.432 reads/op, 0.432 range evictions/op, 9 runs
	{100, 0, 0, 0, 0.25, 1, 0, 0.125, 0.5},      // PointLookup: 0.272 reads/op, 0.272 range evictions/op, 9 runs
	{0, 100, 0, 0, 0.01, 1, 0, 0, 0},            // ShortScan: 1.262 reads/op, 0.884 range evictions/op, 22 runs
	{0, 100, 0, 0, 0.02, 1, 0, 0, 0},            // ShortScan: 1.197 reads/op, 0.833 range evictions/op, 22 runs
	{0, 100, 0, 0, 0.05, 1, 0, 0, 0},            // ShortScan: 1.087 reads/op, 0.761 range evictions/op, 22 runs
	{0, 100, 0, 0, 0.10, 1, 0, 0, 0},            // ShortScan: 1.003 reads/op, 0.702 range evictions/op, 19 runs
	{0, 100, 0, 0, 0.25, 0, 0, 0, 0},            // ShortScan: 0.818 reads/op, 0.000 range evictions/op, 16 runs
	{34, 33, 0, 33, 0.01, 1, 0.5, 0, 0},         // Balanced: 1.382 reads/op, 0.290 range evictions/op, 42 runs
	{34, 33, 0, 33, 0.02, 0.75, 0.5, 0, 0},      // Balanced: 1.299 reads/op, 0.282 range evictions/op, 43 runs
	{34, 33, 0, 33, 0.05, 0.25, 0.5, 0, 0},      // Balanced: 1.064 reads/op, 0.285 range evictions/op, 31 runs
	{34, 33, 0, 33, 0.10, 0, 0, 0, 0},           // Balanced: 0.863 reads/op, 0.000 range evictions/op, 24 runs
	{34, 33, 0, 33, 0.25, 0, 0, 0, 0},           // Balanced: 0.531 reads/op, 0.000 range evictions/op, 24 runs
	{0, 0, 100, 0, 0.01, 1, 0, 0, 0},            // LongScan: 2.600 reads/op, 0.944 range evictions/op, 19 runs
	{0, 0, 100, 0, 0.02, 1, 0, 0, 0},            // LongScan: 2.463 reads/op, 0.893 range evictions/op, 19 runs
	{0, 0, 100, 0, 0.05, 1, 0, 0, 0},            // LongScan: 2.300 reads/op, 0.829 range evictions/op, 19 runs
	{0, 0, 100, 0, 0.10, 1, 0, 0, 0},            // LongScan: 2.153 reads/op, 0.776 range evictions/op, 19 runs
	{0, 0, 100, 0, 0.25, 0, 0, 0, 0},            // LongScan: 1.781 reads/op, 0.000 range evictions/op, 16 runs
	{50, 30, 20, 0, 0.01, 1, 1, 0, 0},           // ReadMixed: 1.303 reads/op, 0.463 range evictions/op, 24 runs
	{50, 30, 20, 0, 0.02, 1, 1, 0, 0},           // ReadMixed: 1.226 reads/op, 0.439 range evictions/op, 31 runs
	{50, 30, 20, 0, 0.05, 1, 0.25, 0, 0},        // ReadMixed: 1.128 reads/op, 0.410 range evictions/op, 31 runs
	{50, 30, 20, 0, 0.10, 1, 0.25, 0, 0},        // ReadMixed: 1.032 reads/op, 0.380 range evictions/op, 31 runs
	{50, 30, 20, 0, 0.25, 0, 0, 0, 0},           // ReadMixed: 0.889 reads/op, 0.000 range evictions/op, 24 runs
	{0, 50, 50, 0, 0.01, 1, 0, 0, 0},            // ScanMixed: 1.965 reads/op, 0.928 range evictions/op, 19 runs
	{0, 50, 50, 0, 0.02, 1, 0, 0, 0},            // ScanMixed: 1.880 reads/op, 0.886 range evictions/op, 19 runs
	{0, 50, 50, 0, 0.05, 1, 0, 0, 0},            // ScanMixed: 1.741 reads/op, 0.818 range evictions/op, 19 runs
	{0, 50, 50, 0, 0.10, 0, 0, 0, 0},            // ScanMixed: 1.638 reads/op, 0.000 range evictions/op, 16 runs
	{0, 50, 50, 0, 0.25, 0, 0, 0, 0},            // ScanMixed: 1.314 reads/op, 0.000 range evictions/op, 16 runs
	{25, 25, 0, 50, 0.01, 1, 0.25, 0, 0},        // UpdateHeavy: 1.036 reads/op, 0.220 range evictions/op, 42 runs
	{25, 25, 0, 50, 0.02, 0.75, 0.25, 0, 0},     // UpdateHeavy: 0.979 reads/op, 0.214 range evictions/op, 43 runs
	{25, 25, 0, 50, 0.05, 0.25, 0.25, 0, 0},     // UpdateHeavy: 0.811 reads/op, 0.217 range evictions/op, 31 runs
	{25, 25, 0, 50, 0.10, 0, 0, 0, 0},           // UpdateHeavy: 0.661 reads/op, 0.000 range evictions/op, 24 runs
	{25, 25, 0, 50, 0.25, 0, 0, 0, 0},           // UpdateHeavy: 0.423 reads/op, 0.000 range evictions/op, 24 runs
	{10, 5, 0, 85, 0.01, 1, 0.25, 0, 0},         // WriteHeavy: 0.245 reads/op, 0.045 range evictions/op, 24 runs
	{10, 5, 0, 85, 0.02, 1, 0.25, 0, 0},         // WriteHeavy: 0.234 reads/op, 0.043 range evictions/op, 24 runs
	{10, 5, 0, 85, 0.05, 0.25, 0.25, 0, 0},      // WriteHeavy: 0.204 reads/op, 0.044 range evictions/op, 27 runs
	{10, 5, 0, 85, 0.10, 0.5, 0.1, 0, 0},        // WriteHeavy: 0.172 reads/op, 0.039 range evictions/op, 42 runs
	{10, 5, 0, 85, 0.25, 0, 0, 0.125, 0},        // WriteHeavy: 0.135 reads/op, 0.000 range evictions/op, 24 runs
	{24, 5, 66, 5, 0.01, 1, 1, 0, 0},            // LongScanHeavy: 2.750 reads/op, 0.664 range evictions/op, 31 runs
	{24, 5, 66, 5, 0.02, 1, 0.5, 0, 0},          // LongScanHeavy: 2.592 reads/op, 0.629 range evictions/op, 39 runs
	{24, 5, 66, 5, 0.05, 0, 0, 0, 0},            // LongScanHeavy: 2.223 reads/op, 0.000 range evictions/op, 24 runs
	{24, 5, 66, 5, 0.10, 0, 0, 0, 0},            // LongScanHeavy: 1.814 reads/op, 0.000 range evictions/op, 24 runs
	{24, 5, 66, 5, 0.25, 0, 0, 0, 0},            // LongScanHeavy: 1.386 reads/op, 0.000 range evictions/op, 24 runs
}
