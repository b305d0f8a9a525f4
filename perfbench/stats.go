package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// timeSpaced times setup n times, gap apart, and returns the durations
// in seconds. Host speed swings over a tenth of a second or so, so
// samples spread over seconds give a median that one slow moment cannot
// move. setup returns its teardown (or nil), which runs untimed.
func timeSpaced(n int, gap time.Duration, setup func() func()) []float64 {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(gap)
		}
		t0 := time.Now()
		teardown := setup()
		xs = append(xs, time.Since(t0).Seconds())
		if teardown != nil {
			teardown()
		}
	}
	return xs
}

// calibSink keeps the calibration loop's result alive.
var calibSink float64

// calibrate times a fixed amount of CPU work. It runs before every
// repetition, so host drift (a slower or busier machine) shows in
// host.calib_s instead of passing for a regression.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(1)
	f := 0.0
	for i := 0; i < 30_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		f += float64(x>>11) * 0x1p-53
	}
	calibSink = f
	return time.Since(t0).Seconds()
}

// The benchmark runs on VMs whose hypervisor steals CPU time in bursts:
// over one 30-second run it took from under 1% to over 20% of the
// machine's CPU time, which moved batch wall times by up to 50%. The
// timings therefore use host time: an interval's wall time scaled by
// the share of the CPU time this process used that the hypervisor did
// not steal, A/(A+S). For a single busy thread that is the wall time
// minus the stolen time; for two busy threads, minus half of it.

// userHZ is the unit of /proc/stat's tick counters.
const userHZ = 100

// hostClock is one reading of the clocks host time is built from.
type hostClock struct {
	wall time.Time
	// cpu is this process's user and system CPU time.
	cpu time.Duration
	// steal and total are the machine's stolen and total CPU ticks,
	// summed over its CPUs (zero where /proc/stat is unavailable).
	steal, total uint64
}

func readHostClock() hostClock {
	c := hostClock{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return c
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// interval is what the clocks saw between two readings.
type interval struct {
	wall, host time.Duration
	// stealFrac is the stolen share of the machine's CPU ticks.
	stealFrac float64
}

func (c hostClock) since() interval {
	n := readHostClock()
	iv := interval{wall: n.wall.Sub(c.wall)}
	iv.host = iv.wall
	cpu := n.cpu - c.cpu
	stolen := time.Duration(n.steal-c.steal) * time.Second / userHZ
	if cpu > 0 && stolen > 0 {
		iv.host = time.Duration(float64(iv.wall) * float64(cpu) / float64(cpu+stolen))
	}
	if n.total > c.total {
		iv.stealFrac = float64(n.steal-c.steal) / float64(n.total-c.total)
	}
	return iv
}
