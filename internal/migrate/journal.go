package migrate

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"code56/internal/durable"
	"code56/internal/wal"
)

// The migration intent log. An online migration over a file-backed array
// journals its progress through a Journal so that a crash — at any point
// — reopens to a resumable state:
//
//	begin      the migration's geometry, appended once at Start
//	watermark  the contiguous converted-stripe cursor at a checkpoint
//	finish     every stripe converted and synced
//	meta-done  the directory's meta.json flipped to RAID-6
//
// The barrier ordering is what makes a journaled watermark trustworthy:
// a checkpoint reads the cursor FIRST, then syncs the data disks, then
// appends the watermark record and syncs the log. Any stripe the record
// claims was therefore fully on media before the claim itself became
// durable. The converse order could journal a watermark whose stripes
// still sat in the page cache — a crash would then "resume" past
// unconverted stripes. Stripes converted after the cursor was read are
// simply redone on resume; diagonal-parity conversion is idempotent.
//
// The final meta flip is a two-record commit: finish is appended and
// synced, durable.Save atomically renames the new meta.json into place,
// then meta-done is appended. Replay distinguishes the three crash
// windows: no finish → resume converting; finish but no meta-done →
// conversion done, redo the (idempotent) meta flip; meta-done → the
// directory is a RAID-6 and there is nothing to resume.
//
// Scope: the journal covers conversion progress and the identity flip.
// Foreground writes served during the migration follow ordinary
// volatile-cache semantics — they become durable at the next checkpoint's
// disk sync. A write whose pages were only partially flushed when the
// machine died (data block but not its parities, or vice versa) is
// repaired the usual way: parity scrub. The journal never claims more
// than it synced.
const (
	recBegin     uint8 = 1
	recWatermark uint8 = 2
	recFinish    uint8 = 3
	recMetaDone  uint8 = 4
)

// DefaultCheckpointInterval is how many watermark stripes may accumulate
// between journal checkpoints. Smaller intervals tighten the redo window
// after a crash at the cost of more fsync barriers.
const DefaultCheckpointInterval = 16

// ErrNoMigration is returned when a directory's intent log records no
// begun migration.
var ErrNoMigration = errors.New("migrate: no migration in progress")

// ErrMigrationComplete is returned when the directory already completed
// its migration (the meta flip landed; the array is a RAID-6).
var ErrMigrationComplete = errors.New("migrate: migration already complete")

// BeginRecord is the begin record's payload: the geometry needed to
// rebuild the migrator on resume, cross-checkable against meta.json.
type BeginRecord struct {
	Rows      int64  `json:"rows"`
	BlockSize int    `json:"block_size"`
	DataDisks int    `json:"data_disks"` // RAID-5 disk count (p-1)
	Layout    string `json:"layout"`
}

// JournalState is what replaying the intent log established.
type JournalState struct {
	// Begun reports a begin record (a migration was started on this
	// directory and has not completed).
	Begun bool
	// Begin is the begin record's payload, valid when Begun.
	Begin BeginRecord
	// Cursor is the highest durable watermark (0 if none was journaled).
	Cursor int64
	// Finished reports the finish record: all stripes converted+synced.
	Finished bool
	// MetaFlipped reports the meta-done record: meta.json is RAID-6.
	MetaFlipped bool
}

// Journal wires an OnlineMigrator to a directory's intent log. Obtain one
// with OpenJournal, inspect State, then either attach it to a migrator
// (AttachJournal) or close it.
type Journal struct {
	mu sync.Mutex
	// dir and log are fixed at construction; the log's methods are still
	// always driven under mu so its records stay ordered.
	dir      string
	log      *wal.Log
	state    JournalState //c56:guardedby mu
	interval int64        //c56:guardedby mu
	// lastCP is the cursor at the last checkpoint.
	lastCP int64 //c56:guardedby mu
	// syncDisks and finishMeta are wired by AttachJournal.
	syncDisks  func() error     //c56:guardedby mu
	finishMeta durable.Meta     //c56:guardedby mu
	crash      *wal.CrashPoints //c56:guardedby mu
}

// OpenJournal opens (creating if absent) the directory's intent log and
// replays it. Torn tails are repaired per the wal package's rules; a log
// that cannot be a wal at all surfaces wal.ErrCorrupt.
func OpenJournal(dir string) (*Journal, error) {
	log, recs, err := wal.Open(durable.WALPath(dir))
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:      dir,
		log:      log,
		interval: DefaultCheckpointInterval,
	}
	for _, r := range recs {
		switch r.Type {
		case recBegin:
			var b BeginRecord
			if err := json.Unmarshal(r.Payload, &b); err != nil {
				log.Close()
				return nil, fmt.Errorf("migrate: bad begin record: %w", err)
			}
			j.state = JournalState{Begun: true, Begin: b}
		case recWatermark:
			if len(r.Payload) != 8 {
				log.Close()
				return nil, fmt.Errorf("migrate: bad watermark record (%d bytes)", len(r.Payload))
			}
			if c := int64(binary.LittleEndian.Uint64(r.Payload)); c > j.state.Cursor {
				j.state.Cursor = c
			}
		case recFinish:
			j.state.Finished = true
		case recMetaDone:
			j.state.MetaFlipped = true
		}
	}
	j.lastCP = j.state.Cursor
	return j, nil
}

// State returns what replay established.
func (j *Journal) State() JournalState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Dir returns the journaled directory.
func (j *Journal) Dir() string { return j.dir }

// SetCheckpointInterval sets how many watermark stripes may pass between
// checkpoints (>= 1). Call before the migration starts.
func (j *Journal) SetCheckpointInterval(n int64) error {
	if n < 1 {
		return fmt.Errorf("migrate: checkpoint interval %d must be >= 1", n)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.interval = n
	return nil
}

// SetCrashPoints arms a crash injector across every durability barrier
// the journal drives: log syncs, data-disk syncs and the meta flip each
// count one barrier. Pass nil to disarm.
func (j *Journal) SetCrashPoints(cp *wal.CrashPoints) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crash = cp
	j.log.SetCrashPoints(cp)
}

// Syncs returns how many log durability barriers completed — the crash
// matrix sizes its sweep from a golden run's count.
func (j *Journal) Syncs() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Syncs()
}

// Close closes the intent log (without deleting it).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// begin journals the start of a fresh migration. A stale log from an
// aborted earlier attempt (Begun=false but bytes present) is reset first.
func (j *Journal) begin(b BeginRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Begun {
		// Resuming: the begin record is already durable; nothing to add.
		return nil
	}
	blob, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if err := j.log.Append(recBegin, blob); err != nil {
		return err
	}
	if err := j.log.Sync(); err != nil {
		return err
	}
	j.state = JournalState{Begun: true, Begin: b}
	return nil
}

// maybeCheckpoint journals cursor if it advanced at least the checkpoint
// interval past the last checkpoint. cursor must be a value the caller
// read BEFORE this call — the disk sync below then covers every stripe
// the record claims.
func (j *Journal) maybeCheckpoint(cursor int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor-j.lastCP < j.interval {
		return nil
	}
	return j.checkpointLocked(cursor)
}

// checkpointLocked: sync data disks, then journal the watermark, then
// sync the log. Caller holds j.mu.
//
//c56:requires mu
func (j *Journal) checkpointLocked(cursor int64) error {
	if j.syncDisks != nil {
		if err := j.syncDisks(); err != nil {
			return fmt.Errorf("migrate: checkpoint disk sync: %w", err)
		}
		j.crash.Hit()
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(cursor))
	if err := j.log.Append(recWatermark, buf[:]); err != nil {
		return err
	}
	if err := j.log.Sync(); err != nil {
		return err
	}
	j.lastCP = cursor
	if cursor > j.state.Cursor {
		j.state.Cursor = cursor
	}
	return nil
}

// finish commits the completed conversion: a final checkpoint at the
// total stripe count, the finish record, the atomic meta flip to RAID-6,
// and the meta-done record. Idempotent per replayed state — a crash
// between any two barriers redoes only the remaining steps on resume.
func (j *Journal) finish(total int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished {
		if err := j.checkpointLocked(total); err != nil {
			return err
		}
		if err := j.log.Append(recFinish, nil); err != nil {
			return err
		}
		if err := j.log.Sync(); err != nil {
			return err
		}
		j.state.Finished = true
	}
	if !j.state.MetaFlipped {
		if err := durable.Save(j.dir, j.finishMeta); err != nil {
			return err
		}
		j.crash.Hit()
		if err := j.log.Append(recMetaDone, nil); err != nil {
			return err
		}
		if err := j.log.Sync(); err != nil {
			return err
		}
		j.state.MetaFlipped = true
	}
	return nil
}

// AttachJournal wires the migrator to a directory's intent log: Start
// journals the begin record, the workers checkpoint the watermark as it
// advances, and completion commits the finish/meta-flip sequence. Call
// after OpenJournal (and ResumeFrom, when resuming) and before Start.
// The journal's replayed cursor must match the migrator's resume point —
// pass State().Cursor to ResumeFrom.
func (m *OnlineMigrator) AttachJournal(j *Journal) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("migrate: already started")
	}
	st := j.State()
	if st.MetaFlipped {
		return ErrMigrationComplete
	}
	if st.Begun {
		if st.Begin.Rows != m.rows {
			return fmt.Errorf("migrate: journal rows %d vs migrator %d", st.Begin.Rows, m.rows)
		}
		if st.Begin.BlockSize != m.r5.BlockSize() {
			return fmt.Errorf("migrate: journal block size %d vs array %d", st.Begin.BlockSize, m.r5.BlockSize())
		}
		if from := m.pass.Report().Done; st.Cursor != from {
			return fmt.Errorf("migrate: journal cursor %d vs migrator resume point %d (pass State().Cursor to ResumeFrom)", st.Cursor, from)
		}
	}
	j.mu.Lock()
	j.syncDisks = m.r5.Disks().Sync
	p := m.code.P()
	j.finishMeta = durable.Meta{
		Version:   durable.MetaVersion,
		Kind:      durable.KindRAID6,
		BlockSize: m.r5.BlockSize(),
		Disks:     p,
		Manifest: &durable.Manifest{
			Version:   durable.ManifestVersion,
			CodeName:  m.code.Name(),
			P:         p,
			BlockSize: m.r5.BlockSize(),
			Stripes:   m.stripes,
		},
	}
	j.mu.Unlock()
	m.journal = j
	return nil
}

// Journal returns the attached intent-log journal (nil when the
// migration is not journaled).
func (m *OnlineMigrator) Journal() *Journal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal
}
