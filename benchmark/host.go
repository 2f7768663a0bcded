package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// The recorded host is a small VM on a shared machine, and what moves its
// numbers from one run to the next is the hypervisor: in runs of the same
// code every throughput fell by a fifth while /proc/stat showed a quarter of
// the time the processors wanted being given to other guests (steal), and
// returned when steal did (README, "Granted time"). That time is not the
// program's. Every rate the benchmark gates is therefore work per second of
// granted time — the timed interval scaled by the share of the processor
// time asked for over that stretch that the guest was actually given. With
// no steal, or none reported, granted time is wall-clock time.

// cpuTicks is this machine's processors as /proc/stat has them, in clock
// ticks summed over all of them: how long they ran something, and how long
// they had something to run while the hypervisor ran another guest.
type cpuTicks struct{ busy, steal int64 }

func readCPUTicks() cpuTicks {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, _ := strconv.ParseInt(s, 10, 64)
		switch i {
		case 3, 4: // idle, iowait: nothing to run
		case 7:
			t.steal = v
		default:
			t.busy += v
		}
	}
	return t
}

// window is a stretch of the run, by the processors' ticks across it. The
// calls timed inside it may cover less than all of it (payload generation
// and checking sit between them, untimed); they are stolen from in the same
// proportion.
type window struct{ from cpuTicks }

func openWindow() window { return window{readCPUTicks()} }

// granted is the share of the processor time wanted since the window opened
// that the guest was given; 1 when there was no steal or nothing is known.
func (w window) granted() float64 {
	now := readCPUTicks()
	busy, steal := now.busy-w.from.busy, now.steal-w.from.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// series is one metric's samples over the cycles, each taken both ways.
type series struct {
	granted []float64 // work per second of granted time: what is reported
	wall    []float64 // work per second of wall-clock time: for the reader
}

// add closes a window: work was done in the calls that took timed.
func (s *series) add(w window, work float64, timed time.Duration) {
	wall := work / timed.Seconds()
	s.wall = append(s.wall, wall)
	s.granted = append(s.granted, wall/w.granted())
}

// summary puts a series' samples before the reader, both ways.
func (s series) summary() string {
	if len(s.granted) == 0 {
		return "no samples"
	}
	g := append([]float64(nil), s.granted...)
	mid := median(g)
	return fmt.Sprintf("%d cycles, min %.5g / median %.5g / max %.5g per second of granted time; median %.5g per second of wall-clock time",
		len(g), g[0], mid, g[len(g)-1], median(append([]float64(nil), s.wall...)))
}

func (w window) describe() string {
	return fmt.Sprintf("the hypervisor granted %.1f%% of the processor time the cycles asked for", 100*w.granted())
}
