package main

import (
	"fmt"
	"time"

	"code56"
	"code56/internal/parallel"
	"code56/internal/serve/bwtimetable"
)

// Every gated phase is one thread of execution: one caller, one worker. On
// the recorded host, time the hypervisor takes from a single busy thread
// slows it by exactly that much, and granted time (host.go) puts it right —
// conversion, sequential and random writes and degraded reads held 3-6 %
// across runs in which a third of the processor time was stolen. Two busy
// threads that mostly wait on each other's locks (two closed-loop clients,
// the default two rebuild or scrub workers at p=5) lose far less than the
// steal they are charged, unpredictably so: the same runs read 15-22 % apart.
// The one exception is the wire's saturating phase (workload.saturating).
var oneWorker = parallel.WithWorkers(1)

// tally is what the cycles of one run gathered: one entry per repetition or
// per cycle for every metric, so each metric's median is taken over samples
// spread across the whole run, not over one contiguous slot of it. On the
// recorded host a neighbour's burst lasts a second or a few; it then owns a
// cycle or two of every metric instead of every sample of one.
type tally struct {
	// phase A
	conv, convOff series // traced run: with the wrappers timing, and passing through
	convSecs      []float64
	last          struct {
		ios, xors, walSyncs float64
		store               storeSnap
		wall                time.Duration
	}
	convReps int // conversions of phase A so far, over all cycles

	// phases B and C
	readUS, writeUS, lateUS []float64 // paced samples, pooled
	readP99, writeP99       []float64 // one per cycle
	fg                      series
	fgOps                   int64
	ioReadB, ioWriteB       []float64 // BlockIO service times, paced (traced)
	ioReadC, ioWriteC       []float64 // the same, saturating
	wireReadC               []float64 // client-side read latency, saturating (traced)
	converted, redone       int64
	interrupts, diagUpdates int64
	atB, atC, total         int64 // the last cycle's watermarks

	// phase D
	seq, rmw, degraded, rebuild, scrub series
	rmwOps, degradedOps                int
	rmwBusy, rmwStore                  time.Duration
	rebuildBusy, rebuildWall           time.Duration
	seqNext                            int64
}

// warmCycles is how many leading cycles are run but not measured: the first
// pass through every path pays for page faults, pool growth and cold caches.
const warmCycles = 1

// measured drops a warm cycle's samples.
func (j *journey) measured() bool { return j.cycle >= warmCycles }

// phaseConvert is phase A of one cycle: convert the filled RAID-5 to Code
// 5-6 with no foreground I/O, then hand the same filled disks back, until the
// cycle's slice is used (at least once). This is the paper's headline path on
// its own: convert_mbps, and — because nothing else touches the disks — the
// exact I/O and XOR counts the paper predicts.
func (j *journey) phaseConvert() error {
	defer j.t.phase(spPhase)()
	w := j.w
	ty := &j.ty
	slice := j.slice(shareConvert)
	// The traced run needs a repetition of each kind (see below) per cycle.
	minReps := 1
	if j.t != nil {
		minReps = 2
	}
	win := openWindow()
	var on, off time.Duration
	var nOn, nOff int64
	for start, n := time.Now(), 0; n < minReps || time.Since(start) < slice; n++ {
		mig, err := j.newMigrator()
		if err != nil {
			return err
		}
		// The traced run leaves its wrappers switched off on every other
		// repetition: the same binary, the same run, with and without the
		// timing — that difference is the tracing overhead.
		tracedRep := j.t != nil && ty.convReps%2 == 0
		if j.t != nil {
			j.t.on.Store(tracedRep)
		}
		ty.convReps++
		j.r5.Disks().ResetStats()
		xors0 := j.reg.Counter("migrate.conversion_xors").Value()
		snap0 := j.storeSnap()
		endRep := j.t.phase(spConvertRep)
		t0 := time.Now()
		if err := mig.Start(); err != nil {
			return err
		}
		if err := mig.Wait(); err != nil {
			return err
		}
		wall := time.Since(t0)
		endRep()
		if done, total := mig.Progress(); done != total {
			return fmt.Errorf("conversion stopped at %d/%d stripes", done, total)
		}
		j.res.Attempted++
		if j.t == nil || tracedRep {
			on += wall
			nOn++
			io := j.r5.Disks().TotalStats()
			ty.last.ios = float64(io.Total()) / float64(w.blocks())
			ty.last.xors = float64(j.reg.Counter("migrate.conversion_xors").Value()-xors0) / float64(w.stripes)
			ty.last.store = j.storeSnap().since(snap0)
			ty.last.wall = wall
			if jr := mig.Journal(); jr != nil {
				ty.last.walSyncs = float64(jr.Syncs())
			}
		} else {
			off += wall
			nOff++
		}
		if j.t != nil {
			j.t.on.Store(true)
		}
		ty.convSecs = append(ty.convSecs, wall.Seconds())
		if err := j.backToRAID5(mig); err != nil {
			return err
		}
	}
	if j.measured() {
		ty.conv.add(win, float64(nOn*w.userBytes())/1e6, on)
		if nOff > 0 {
			ty.convOff.add(win, float64(nOff*w.userBytes())/1e6, off)
		}
	}
	return nil
}

// phaseForeground is phases B and C of one cycle. One conversion, paced by a
// bandwidth timetable so that it is still sweeping its watermark when the
// clients stop, runs underneath: B offers a fixed open-loop load from both
// clients (latency from the instant each request was due), C issues
// operations back to back from workload.saturating of them.
// It ends by finishing the conversion unthrottled.
func (j *journey) phaseForeground() (*code56.OnlineMigrator, *code56.RAID6, error) {
	w := j.w
	ty := &j.ty
	mig, err := j.newMigrator()
	if err != nil {
		return nil, nil, err
	}
	tPaced, tSat := j.slice(sharePaced), j.slice(shareSaturate)
	// Size the timetable's rate so conversion I/O spreads over both phases;
	// what the conversion needs unthrottled is known from phase A.
	idle := (tPaced + tSat).Seconds() - median(append([]float64(nil), ty.convSecs...))
	if idle < 0.1 {
		idle = 0.1
	}
	convBytes := w.stripes * mig.StripeConversionBytes()
	kib := int64(float64(convBytes)/idle/1024) + 1
	tt, err := bwtimetable.Parse(fmt.Sprint(kib)) // suffixless = KiB/s
	if err != nil {
		return nil, nil, err
	}
	bwtimetable.NewController(tt, mig, mig.StripeConversionBytes()).Apply()
	if err := mig.Start(); err != nil {
		return nil, nil, err
	}

	endB := j.t.phase(spPhase)
	b := openLoop(j.fg, tPaced, w.rate)
	endB()
	atB, _ := mig.Progress()
	j.account(b, "paced")
	rUS, wUS := b.latencies(false), b.latencies(true)
	if j.measured() {
		ty.readUS = append(ty.readUS, rUS...)
		ty.writeUS = append(ty.writeUS, wUS...)
		ty.lateUS = append(ty.lateUS, b.lateness()...)
		ty.readP99 = append(ty.readP99, quantile(rUS, 0.99))
		ty.writeP99 = append(ty.writeP99, quantile(wUS, 0.99))
	}
	if j.t != nil {
		ioR, ioW := j.t.io.drain()
		if j.measured() {
			ty.ioReadB = append(ty.ioReadB, ioR...)
			ty.ioWriteB = append(ty.ioWriteB, ioW...)
		}
	}

	endC := j.t.phase(spPhase)
	win := openWindow()
	c := closedLoop(j.fg[:w.saturating()], tSat)
	endC()
	atC, total := mig.Progress()
	j.account(c, "saturate")
	ty.atB, ty.atC, ty.total = atB, atC, total
	if j.measured() {
		ty.fg.add(win, float64(c.attempted-c.failed)/1e3, c.span)
		ty.fgOps += c.attempted
	}
	if j.t != nil {
		ioR, ioW := j.t.io.drain()
		if j.measured() {
			ty.ioReadC = append(ty.ioReadC, ioR...)
			ty.ioWriteC = append(ty.ioWriteC, ioW...)
			ty.wireReadC = append(ty.wireReadC, c.latencies(false)...)
		}
	}

	// Finish the conversion at full speed: phase D needs a RAID-6.
	mig.SetThrottle(0)
	if err := mig.Wait(); err != nil {
		return nil, nil, err
	}
	r6, err := mig.Result()
	if err != nil {
		return nil, nil, err
	}
	st := mig.Stats()
	ty.converted += st.StripesConverted
	ty.redone += st.StripesRedone
	ty.interrupts += st.WriteInterrupts
	ty.diagUpdates += st.DiagonalUpdates

	if j.cycle > 0 {
		return mig, r6, nil
	}
	// Once a run, in the warm cycle: the array a conversion under load left
	// behind is checked in full before anything else writes to it.
	if rep := j.sh.check(r6, w.stripes); !rep.ok() {
		j.res.fault("after migration under load: %d stripes do not verify, %d blocks lost their last acknowledged write; first: %s",
			rep.stripesBad, rep.blocksBad, rep.first)
	}
	// What one foreground write costs the disks once its stripe is
	// converted, counted exactly: a single caller, nothing else running.
	if j.t != nil {
		const n = 64
		cl := newClient(0, directTarget{j.vol}, j.sh, w.block, j.seed+2)
		r6.Disks().ResetStats()
		for i := 0; i < n; i++ {
			block := cl.ownBlock()
			j.sh.next(cl.data, block)
			cl.issue(true, block)
		}
		io := r6.Disks().TotalStats()
		j.res.set("vdisk.reads_per_fg_write", float64(io.Reads)/n, n)
		j.res.set("vdisk.writes_per_fg_write", float64(io.Writes)/n, n)
		j.res.Attempted += cl.attempted
		j.res.Failed += cl.failed
		j.t.io.drain()
	}
	return mig, r6, nil
}

// account folds a load phase's operation counts into the result.
func (j *journey) account(l loadResult, phase string) {
	j.res.Attempted += l.attempted
	j.res.Failed += l.failed
	if l.failed > 0 {
		j.res.fault("%s: %d of %d operations failed; first: %s", phase, l.failed, l.attempted, l.firstErr)
	}
}

// timed is one phase's slice of one cycle from a single caller: prepare
// (untimed: payload generation) then op (timed), over and over until the
// slice is used and op has run atLeast times. It adds the cycle's work per
// second to the series, workPerOp being what one op contributes.
func (j *journey) timed(into *series, name uint32, share float64, atLeast int, workPerOp float64, prepare func(), op func() error) (n int, busy time.Duration, err error) {
	slice := j.slice(share)
	win := openWindow()
	for start := time.Now(); n < atLeast || time.Since(start) < slice; n++ {
		if prepare != nil {
			prepare()
		}
		d, err := j.t.timeOp(name, op)
		j.res.Attempted++
		if err != nil {
			return 0, 0, err
		}
		busy += d
	}
	if j.measured() {
		into.add(win, float64(n)*workPerOp, busy)
	}
	return n, busy, nil
}

// phaseArray is phase D of one cycle: the RAID-6 the user ends with, driven
// by a single caller through the array's own entry points. It leaves the
// array whole and consistent, so the cycle can hand the disks back.
func (j *journey) phaseArray(r6 *code56.RAID6) error {
	defer j.t.phase(spPhase)()
	w := j.w
	ty := &j.ty
	r6.SetTelemetry(j.reg, nil)
	bs := int64(w.block)
	const kilo, mega = 1e-3, 1e-6 // an operation in thousands, a byte in MB

	// Sequential full-stripe writes, a run of whole stripes per call.
	runStripes := (32 << 20) / (w.perStripe() * bs)
	if runStripes < 1 {
		runStripes = 1
	}
	if runStripes > w.stripes {
		runStripes = w.stripes
	}
	if j.seqBuf == nil {
		j.seqBuf = make([]byte, runStripes*w.perStripe()*bs)
	}
	perRun := runStripes * w.perStripe()
	var first int64
	_, _, err := j.timed(&ty.seq, spSeqWrite, shareSeqWrite, 1, float64(perRun*bs)*mega, func() {
		if ty.seqNext+runStripes > w.stripes {
			ty.seqNext = 0
		}
		first = ty.seqNext * w.perStripe()
		ty.seqNext += runStripes
		for i := int64(0); i < perRun; i++ {
			j.sh.next(j.seqBuf[i*bs:(i+1)*bs], first+i)
		}
	}, func() error {
		if err := r6.WriteRange(first, j.seqBuf); err != nil {
			return fmt.Errorf("WriteRange at block %d: %w", first, err)
		}
		for i := int64(0); i < perRun; i++ {
			j.sh.acked(first + i)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Random single-block writes: read-modify-write of data, horizontal and
	// diagonal parity.
	snap0 := j.storeSnap()
	var block int64
	n, busy, err := j.timed(&ty.rmw, spRMW, shareRMW, 100, kilo, func() {
		block = j.rng.Int63n(w.blocks())
		j.sh.next(j.data, block)
	}, func() error {
		if err := r6.WriteBlock(block, j.data); err != nil {
			return fmt.Errorf("WriteBlock %d: %w", block, err)
		}
		j.sh.acked(block)
		return nil
	})
	if err != nil {
		return err
	}
	if j.measured() {
		ty.rmwOps += n
		ty.rmwBusy += busy
		ty.rmwStore += j.storeSnap().since(snap0).busy()
	}

	// Two disks fail; random reads are served around them. The answer is
	// checked between the timed calls.
	r6.Disks().Disk(failA).Fail()
	r6.Disks().Disk(failB).Fail()
	block = -1
	checkLast := func() {
		if block >= 0 && !j.sh.holds(block, j.got, j.want) {
			j.res.Failed++
			j.res.fault("degraded read of block %d did not return its last acknowledged write", block)
		}
	}
	n, _, err = j.timed(&ty.degraded, spDegraded, shareDegraded, 100, kilo, func() {
		checkLast()
		block = j.rng.Int63n(w.blocks())
	}, func() error {
		if err := r6.ReadBlock(block, j.got); err != nil {
			return fmt.Errorf("degraded ReadBlock %d: %w", block, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	checkLast()
	if j.measured() {
		ty.degradedOps += n
	}

	// Replace both and rebuild: each repetition fails the two disks again,
	// swaps in blank ones and reconstructs every stripe.
	snap0 = j.storeSnap()
	_, busy, err = j.timed(&ty.rebuild, spRebuild, shareRebuild, 1, float64(w.userBytes())*mega, func() {
		for _, d := range []int{failA, failB} {
			r6.Disks().Disk(d).Fail()
			r6.Disks().Disk(d).Replace()
		}
	}, func() error {
		if err := r6.RebuildContext(bg, w.stripes, []int{failA, failB}, oneWorker); err != nil {
			return fmt.Errorf("RebuildContext: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if j.measured() {
		ty.rebuildBusy += j.storeSnap().since(snap0).busy()
		ty.rebuildWall += busy
	}

	// Verify-only scrub of every stripe.
	_, _, err = j.timed(&ty.scrub, spScrub, shareScrub, 1, float64(w.userBytes())*mega, nil, func() error {
		rep, err := r6.ScrubContextMode(bg, w.stripes, code56.ScrubCheck, oneWorker)
		if err != nil {
			return fmt.Errorf("ScrubContextMode: %w", err)
		}
		if !rep.Clean() {
			j.res.Failed++
			j.res.fault("verify-only scrub found the array inconsistent")
		}
		return nil
	})
	return err
}

// report turns the cycles' tally into the run's metrics: every throughput
// and latency is the median of its samples over the measured cycles.
func (j *journey) report(r6 *code56.RAID6) {
	w := j.w
	ty := &j.ty
	res := j.res

	for _, m := range []struct {
		name    string
		s       series
		samples int
	}{
		{"convert_mbps", ty.conv, ty.convReps},
		{"fg_kops", ty.fg, int(ty.fgOps)},
		{"seq_write_mbps", ty.seq, len(ty.seq.granted)},
		{"rmw_write_kops", ty.rmw, ty.rmwOps},
		{"degraded_read_kops", ty.degraded, ty.degradedOps},
		{"rebuild_mbps", ty.rebuild, len(ty.rebuild.granted)},
		{"scrub_mbps", ty.scrub, len(ty.scrub.granted)},
	} {
		res.notef("%s: %s", m.name, m.s.summary())
		res.set(m.name, median(m.s.granted), m.samples)
	}
	j.convMBps = res.Values["convert_mbps"]

	readP50 := median(ty.readUS)
	res.set("read_p50_us", readP50, len(ty.readUS))
	res.set("write_p50_us", median(ty.writeUS), len(ty.writeUS))
	res.set("read_p99_us", median(ty.readP99), len(ty.readUS))
	res.set("write_p99_us", median(ty.writeP99), len(ty.writeUS))
	late50, late99 := quantile(ty.lateUS, 0.5), quantile(ty.lateUS, 0.99)
	res.notef("paced: open loop, %d clients x %d ops/s, %.0f%% reads; generator lateness p50 %.2f us, p99 %.1f us", clients, w.rate, readShare*100, late50, late99)
	// The p99s sit beside the generator's own p99 lateness for the reader
	// to compare (README, "Latency"); the medians must be the system's.
	if late50 > readP50 && !j.smoke {
		res.fault("generator lateness p50 %.2f us exceeds read_p50_us %.2f us: the latencies are the generator's, not the system's", late50, readP50)
	}
	res.notef("saturate: closed loop, %d client(s); last cycle's conversion watermark %d -> %d -> %d of %d stripes across paced and saturate",
		w.saturating(), 0, ty.atB, ty.atC, ty.total)
	if j.t == nil {
		return
	}

	p := float64(w.p())
	last := ty.last
	res.set("vdisk.ios_per_data_block", last.ios, 1)
	res.notef("vdisk.ios_per_data_block: paper (p-1)/(p-2) = %.4f", (p-1)/(p-2))
	res.set("migrate.conv_xors_per_stripe", last.xors, 1)
	res.set("store.read_calls_per_stripe", float64(last.store.reads)/float64(w.stripes), 1)
	res.set("store.write_calls_per_stripe", float64(last.store.writes)/float64(w.stripes), 1)
	res.set("store.read_busy_s", time.Duration(last.store.readNs).Seconds(), int(last.store.reads))
	res.set("store.write_busy_s", time.Duration(last.store.writeNs).Seconds(), int(last.store.writes))
	res.set("store.sync_calls", float64(last.store.syncs), 1)
	res.set("store.sync_busy_s", time.Duration(last.store.syncNs).Seconds(), int(last.store.syncs))
	storeShare := ratio(last.store.busy().Seconds(), last.wall.Seconds())
	res.set("store.busy_share", storeShare, 1)
	res.set("migrate.self_share", 1-storeShare, 1)
	res.set("tax.convert_over_store", ratio(1, storeShare), 1)
	res.set("wal.syncs", last.walSyncs, 1)
	res.set("wal.syncs_per_100_stripes", last.walSyncs*100/float64(w.stripes), 1)
	off := median(ty.convOff.granted)
	res.set("trace.overhead_pct", 100*ratio(off-j.convMBps, off), len(ty.convOff.granted))

	res.set("migrate.read_us_p50", median(ty.ioReadB), len(ty.ioReadB))
	res.set("migrate.write_us_p50", median(ty.ioWriteB), len(ty.ioWriteB))
	res.set("serve.gen_late_us_p99", late99, len(ty.lateUS))
	res.set("serve.blockio_read_us_p50", median(ty.ioReadC), len(ty.ioReadC))
	res.set("serve.blockio_write_us_p50", median(ty.ioWriteC), len(ty.ioWriteC))
	var selfR, selfW []float64
	for _, wt := range j.wires {
		selfR = append(selfR, wt.selfReadUS...)
		selfW = append(selfW, wt.selfWriteUS...)
	}
	res.set("serve.self_read_us_p50", median(selfR), len(selfR))
	res.set("serve.self_write_us_p50", median(selfW), len(selfW))
	res.set("tax.wire_over_blockio", ratio(median(ty.wireReadC), median(ty.ioReadC)), len(ty.wireReadC))
	snap := j.reg.Snapshot()
	res.set("serve.rejected", float64(snap.Counters["serve.rejected_inflight"]+snap.Counters["serve.rejected_rate"]), 1)
	res.set("migrate.redo_ratio", ratio(float64(ty.redone), float64(ty.converted)), int(ty.converted))
	res.set("migrate.write_interrupts", float64(ty.interrupts), 1)
	res.set("migrate.diagonal_updates", float64(ty.diagUpdates), 1)

	res.set("raid6.self_share.rmw", 1-ratio(ty.rmwStore.Seconds(), ty.rmwBusy.Seconds()), ty.rmwOps)
	res.set("raid6.degraded_fast_path_ratio",
		ratio(float64(snap.Counters["raid6.degraded_fast_path"]), float64(snap.Counters["raid6.degraded_reads"])),
		int(snap.Counters["raid6.degraded_reads"]))
	res.set("raid6.xors_per_rebuilt_block", rebuildXORsPerBlock(r6.Code(), 512, failA, failB), 1)
	res.set("raid6.self_share.rebuild", 1-ratio(ty.rebuildBusy.Seconds(), ty.rebuildWall.Seconds()), len(ty.rebuild.granted))
}

// layerProbes times the two bottom layers directly at both workload shapes
// and expresses the layers above as taxes over them (traced run only).
func (j *journey) layerProbes() {
	small := probeShape(5, 4096, j.seed)
	large := probeShape(13, 16384, j.seed)
	j.res.set("xorblk.xormulti_gbps.4k", small.xormulti, 1)
	j.res.set("xorblk.xormulti_gbps.16k", large.xormulti, 1)
	j.res.set("layout.encode_gbps.p5_4k", small.encode, 1)
	j.res.set("layout.encode_gbps.p13_16k", large.encode, 1)
	j.res.set("layout.verify_gbps.p13_16k", large.verify, 1)
	j.res.set("layout.reconstruct2_gbps.p13_16k", large.reconstruct2, 1)
	own := small
	if j.w.block == 16384 {
		own = large
	}
	// Bases: XorMulti GB/s ÷ Encode GB/s, both of bytes touched; Encode in
	// user MB/s (its data share of the stripe) ÷ convert_mbps.
	j.res.set("tax.encode_over_xor", ratio(own.xormulti, own.encode), 1)
	j.res.set("tax.convert_over_encode", ratio(own.encode*own.dataShare*1e3, j.convMBps), 1)

	var stored int64
	disks := j.r5.Disks()
	for i := 0; i < disks.Len(); i++ {
		if size, err := disks.Disk(i).Store().Size(); err == nil {
			stored += size
		}
	}
	j.res.set("store.bytes_per_user_byte", ratio(float64(stored), float64(j.w.userBytes())), 1)
}
