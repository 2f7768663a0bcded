// Package bwtimetable schedules migration bandwidth around foreground
// demand with rclone-style time-of-day rules.
//
// A timetable is a space-separated list of "HH:MM,RATE" entries, e.g.
//
//	08:00,10M 19:00,50M 23:00,off
//
// meaning: from 08:00 local time cap migration at 10 MiB/s, from 19:00 at
// 50 MiB/s, and from 23:00 run unthrottled. The last entry of the day
// wraps around midnight and stays in force until the first entry the next
// morning. A single bare rate ("10M") is a constant cap with no schedule.
//
// Rates follow the rclone SizeSuffix convention: a suffixless number is
// KiB/s, and k/M/G/T suffixes are successive 1024 multipliers ("512" =
// 512 KiB/s, "10M" = 10 MiB/s). "off" — or a rate of 0 — means unlimited.
//
// The Controller translates the active rate into an OnlineMigrator
// per-stripe throttle: a migration stripe moves a fixed number of bytes
// (StripeConversionBytes), so pausing stripeBytes/rate between stripes
// caps sustained migration bandwidth at the scheduled rate. Retuning
// relies on SetThrottle waking sleeping workers immediately.
package bwtimetable

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Unlimited is the Rate value meaning "no bandwidth cap" ("off").
const Unlimited int64 = 0

// Entry is one timetable rule: from HH:MM onwards, cap at BytesPerSec.
type Entry struct {
	// Minute is the start of day offset in minutes (0..1439).
	Minute int
	// BytesPerSec is the cap; Unlimited (0) means no cap.
	BytesPerSec int64
}

// Timetable is an ordered set of time-of-day bandwidth rules.
type Timetable struct {
	entries []Entry // sorted by Minute, unique
}

// ParseRate parses a single rclone-style rate token: "off" or 0 mean
// unlimited; a suffixless number is KiB/s; k/M/G/T suffixes multiply by
// successive factors of 1024.
func ParseRate(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("bwtimetable: empty rate")
	}
	if strings.EqualFold(t, "off") {
		return Unlimited, nil
	}
	mult := int64(1024) // suffixless = KiB/s
	switch t[len(t)-1] {
	case 'b', 'B':
		mult = 1
		t = t[:len(t)-1]
	case 'k', 'K':
		mult = 1024
		t = t[:len(t)-1]
	case 'm', 'M':
		mult = 1024 * 1024
		t = t[:len(t)-1]
	case 'g', 'G':
		mult = 1024 * 1024 * 1024
		t = t[:len(t)-1]
	case 't', 'T':
		mult = 1024 * 1024 * 1024 * 1024
		t = t[:len(t)-1]
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bwtimetable: bad rate %q", s)
	}
	return int64(v * float64(mult)), nil
}

// FormatRate renders a rate the way Parse accepts it.
func FormatRate(bps int64) string {
	if bps == Unlimited {
		return "off"
	}
	switch {
	case bps%(1024*1024*1024) == 0:
		return fmt.Sprintf("%dG", bps/(1024*1024*1024))
	case bps%(1024*1024) == 0:
		return fmt.Sprintf("%dM", bps/(1024*1024))
	case bps%1024 == 0:
		return fmt.Sprintf("%dk", bps/1024)
	}
	return fmt.Sprintf("%dB", bps)
}

func parseMinute(s string) (int, error) {
	hm := strings.SplitN(s, ":", 2)
	if len(hm) != 2 {
		return 0, fmt.Errorf("bwtimetable: bad time %q (want HH:MM)", s)
	}
	h, errH := strconv.Atoi(hm[0])
	m, errM := strconv.Atoi(hm[1])
	if errH != nil || errM != nil || h < 0 || h > 23 || m < 0 || m > 59 {
		return 0, fmt.Errorf("bwtimetable: bad time %q (want HH:MM)", s)
	}
	return h*60 + m, nil
}

// Parse parses a timetable specification. The empty string means
// "always unlimited". A single bare rate is a constant cap. Otherwise
// every token must be "HH:MM,RATE".
func Parse(spec string) (*Timetable, error) {
	tt := &Timetable{}
	fields := strings.Fields(spec)
	if len(fields) == 0 {
		tt.entries = []Entry{{Minute: 0, BytesPerSec: Unlimited}}
		return tt, nil
	}
	if len(fields) == 1 && !strings.Contains(fields[0], ",") {
		rate, err := ParseRate(fields[0])
		if err != nil {
			return nil, err
		}
		tt.entries = []Entry{{Minute: 0, BytesPerSec: rate}}
		return tt, nil
	}
	seen := map[int]bool{}
	for _, f := range fields {
		parts := strings.SplitN(f, ",", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bwtimetable: bad entry %q (want HH:MM,RATE)", f)
		}
		min, err := parseMinute(parts[0])
		if err != nil {
			return nil, err
		}
		rate, err := ParseRate(parts[1])
		if err != nil {
			return nil, err
		}
		if seen[min] {
			return nil, fmt.Errorf("bwtimetable: duplicate time %q", parts[0])
		}
		seen[min] = true
		tt.entries = append(tt.entries, Entry{Minute: min, BytesPerSec: rate})
	}
	sort.Slice(tt.entries, func(i, j int) bool { return tt.entries[i].Minute < tt.entries[j].Minute })
	return tt, nil
}

// Rate returns the bandwidth cap in force at t (local wall-clock rules).
// Before the day's first entry, the previous day's last entry still
// applies (midnight wraparound).
func (tt *Timetable) Rate(t time.Time) int64 {
	if tt == nil || len(tt.entries) == 0 {
		return Unlimited
	}
	minute := t.Hour()*60 + t.Minute()
	// Last entry whose Minute <= now; if none, wrap to the day's last.
	active := tt.entries[len(tt.entries)-1]
	for _, e := range tt.entries {
		if e.Minute <= minute {
			active = e
		}
	}
	return active.BytesPerSec
}

// String renders the timetable back in parseable form.
func (tt *Timetable) String() string {
	if tt == nil || len(tt.entries) == 0 {
		return "off"
	}
	if len(tt.entries) == 1 && tt.entries[0].Minute == 0 {
		return FormatRate(tt.entries[0].BytesPerSec)
	}
	parts := make([]string, 0, len(tt.entries))
	for _, e := range tt.entries {
		parts = append(parts, fmt.Sprintf("%02d:%02d,%s", e.Minute/60, e.Minute%60, FormatRate(e.BytesPerSec)))
	}
	return strings.Join(parts, " ")
}

// Throttler is the seam into parallel.Pass.SetThrottle: a per-stripe pause length.
type Throttler interface {
	SetThrottle(d time.Duration)
}

// ThrottleFor converts a bandwidth cap into the per-stripe pause that
// sustains it, given how many bytes one stripe conversion moves.
// Unlimited maps to 0 (no pause).
func ThrottleFor(bytesPerSec, stripeBytes int64) time.Duration {
	if bytesPerSec == Unlimited || stripeBytes <= 0 {
		return 0
	}
	return time.Duration(stripeBytes * int64(time.Second) / bytesPerSec)
}

// Controller applies a Timetable to a Throttler, retuning as wall-clock
// time crosses entry boundaries.
type Controller struct {
	tt          *Timetable
	target      Throttler
	stripeBytes int64

	// now and tick are injectable for tests; defaults are time.Now and
	// a 10s re-evaluation cadence (entry granularity is one minute).
	now  func() time.Time
	tick time.Duration
}

// NewController shapes target by tt. stripeBytes is the number of bytes
// one migration stripe conversion moves (OnlineMigrator.StripeConversionBytes).
func NewController(tt *Timetable, target Throttler, stripeBytes int64) *Controller {
	return &Controller{
		tt:          tt,
		target:      target,
		stripeBytes: stripeBytes,
		now:         time.Now,
		tick:        10 * time.Second,
	}
}

// SetClock overrides the controller's clock and re-evaluation cadence
// (tests only).
func (c *Controller) SetClock(now func() time.Time, tick time.Duration) {
	c.now = now
	c.tick = tick
}

// Apply applies the rate in force right now and returns it.
func (c *Controller) Apply() int64 {
	rate := c.tt.Rate(c.now())
	c.target.SetThrottle(ThrottleFor(rate, c.stripeBytes))
	return rate
}

// Run applies the timetable until ctx is cancelled, re-evaluating each
// tick. SetThrottle itself no-ops on an unchanged value, so steady-state
// ticks do not wake migration workers.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.tick)
	defer t.Stop()
	c.Apply()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Apply()
		}
	}
}
