package vdisk

import (
	"fmt"
	"math/rand"
	"time"
)

// FaultConfig describes a deterministic, seeded fault scenario for a disk.
// The zero value injects nothing. All probabilities are per-operation and
// drawn from a rand.Rand seeded with Seed, so a given config replayed
// against the same I/O sequence produces the same faults — tests and the
// c56-sim/c56-migrate fault modes rely on that reproducibility. (Under
// concurrent workers the per-disk I/O order, and therefore the draw order,
// follows the goroutine interleaving; fully deterministic scenarios should
// drive conversion with one worker.)
type FaultConfig struct {
	// Seed seeds the disk's fault RNG. Array.SetFaults derives a distinct
	// per-disk seed from this value so disks fault independently.
	Seed int64
	// ReadTransientProb is the probability that a read fails with
	// ErrTransient (absorbed by the retry policy, if one is set).
	ReadTransientProb float64
	// WriteTransientProb is the probability that a write fails with
	// ErrTransient.
	WriteTransientProb float64
	// LatentProb is the probability that a read discovers a new latent
	// sector error on its block: the read (and every subsequent read)
	// fails with ErrLatent until the block is rewritten — the way real
	// latent sector errors manifest.
	LatentProb float64
	// FailAtIO, when positive, fail-stops the whole disk at its FailAtIO-th
	// I/O attempt counted from SetFaults — a scheduled mid-operation disk
	// failure. The disk then errors until Replace.
	FailAtIO int64
}

// Validate checks the config's ranges.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ReadTransientProb", c.ReadTransientProb},
		{"WriteTransientProb", c.WriteTransientProb},
		{"LatentProb", c.LatentProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("vdisk: %s = %v outside [0,1]", p.name, p.v)
		}
	}
	if c.FailAtIO < 0 {
		return fmt.Errorf("vdisk: FailAtIO = %d is negative", c.FailAtIO)
	}
	return nil
}

// faultState is a disk's armed injector: config, RNG, and the I/O attempt
// count since arming. Guarded by the disk's mu.
type faultState struct {
	cfg FaultConfig
	rng *rand.Rand
	ios int64
}

// SetFaults arms the disk's fault injector with cfg (replacing any previous
// one and restarting the I/O count). A zero config disarms it.
func (d *Disk) SetFaults(cfg FaultConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if cfg == (FaultConfig{}) {
		d.faults = nil
		return nil
	}
	d.faults = &faultState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	return nil
}

// SetRetry installs a retry-with-backoff policy for transient I/O errors:
// a failed attempt is retried up to max times, sleeping base, 2*base,
// 4*base, … between attempts. Only ErrTransient is retried — fail-stop and
// latent errors cannot succeed on retry. max = 0 disables retries.
func (d *Disk) SetRetry(max int, base time.Duration) error {
	if max < 0 || base < 0 {
		return fmt.Errorf("vdisk: invalid retry policy (max %d, base %v)", max, base)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.retryMax = max
	d.retryBase = base
	return nil
}

// retryPolicy snapshots the disk's retry knobs.
//
//c56:noalloc
func (d *Disk) retryPolicy() (int, time.Duration) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.retryMax, d.retryBase
}

// backoff returns the sleep before retry attempt n (1-based).
//
//c56:noalloc
func backoff(base time.Duration, n int) time.Duration {
	if base <= 0 {
		return 0
	}
	if n > 20 { // cap the shift; 2^20*base is already absurd
		n = 20
	}
	return base << (n - 1)
}

// derivedSeed spreads one scenario seed across disk ids so per-disk RNG
// streams are independent (splitmix64-style mixing).
func derivedSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// SetFaults arms every disk's injector with a per-disk seed derived from
// cfg.Seed, and remembers the scenario so disks attached later with Add()
// join it. A zero config disarms all current and future disks.
func (a *Array) SetFaults(cfg FaultConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	if cfg == (FaultConfig{}) {
		a.faults = nil
	} else {
		c := cfg
		a.faults = &c
	}
	a.mu.Unlock()
	for _, d := range a.all() {
		dc := cfg
		if dc != (FaultConfig{}) {
			dc.Seed = derivedSeed(cfg.Seed, d.ID())
		}
		if err := d.SetFaults(dc); err != nil {
			return err
		}
	}
	return nil
}

// SetRetry installs the retry policy on every current disk and on disks
// attached later with Add().
func (a *Array) SetRetry(max int, base time.Duration) error {
	if max < 0 || base < 0 {
		return fmt.Errorf("vdisk: invalid retry policy (max %d, base %v)", max, base)
	}
	a.mu.Lock()
	a.retryMax, a.retryBase = max, base
	a.mu.Unlock()
	for _, d := range a.all() {
		if err := d.SetRetry(max, base); err != nil {
			return err
		}
	}
	return nil
}
