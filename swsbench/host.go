package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo describes the machine a run measured on. CPU steal is time
// the hypervisor gave this VM's vCPUs to someone else: a run with a high
// share measured a slower machine, not a slower program.
type hostInfo struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUStealFrac float64 `json:"cpu_steal_frac"`
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	steal, total uint64
}

// readCPU reads /proc/stat; ok is false where it does not exist.
func readCPU() (t cpuTimes, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return t, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return t, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealFrac is the share of CPU time stolen between two readings.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func host(a, b cpuTimes) hostInfo {
	return hostInfo{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUStealFrac: stealFrac(a, b),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in megabytes
// (10^6 bytes) since it started or since the last resetPeakRSS, or 0
// where /proc/self/status does not exist.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// processCPU is the CPU time all of the process's threads have used so
// far, user plus system. Unlike wall time it leaves out time a thread
// waited: for a wake-up, for a vCPU, and (where the guest kernel accounts
// steal time) for a vCPU the hypervisor gave to another VM.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the process's peak resident set to the current
// one. Where clear_refs cannot be written the peak stays the process's
// lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
