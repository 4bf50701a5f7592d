//go:build !unix

package main

// cpuSeconds is unavailable here; go.cpu_util_pct then reads 0.
func cpuSeconds() float64 { return 0 }
