package obs

import (
	"encoding/json"
	"fmt"

	"code56/internal/migrate"
	"code56/internal/vdisk"
)

// Status is a health checker's verdict, ordered by severity.
type Status int

const (
	// StatusOK: the component is fully operational.
	StatusOK Status = iota
	// StatusDegraded: the component still serves (degraded reads, a paused
	// migration) but has lost redundancy or throughput.
	StatusDegraded
	// StatusFailed: the component cannot do its job.
	StatusFailed
)

// String returns the wire form used in /healthz responses.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDegraded:
		return "degraded"
	default:
		return "failed"
	}
}

// MarshalJSON writes the status as its string form.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the string form back, so clients (and tests) can
// decode /healthz responses into the same types the server serves.
func (s *Status) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	switch str {
	case "ok":
		*s = StatusOK
	case "degraded":
		*s = StatusDegraded
	case "failed":
		*s = StatusFailed
	default:
		return fmt.Errorf("obs: unknown health status %q", str)
	}
	return nil
}

// worse returns the more severe of two statuses.
func worse(a, b Status) Status {
	if b > a {
		return b
	}
	return a
}

// Health is one checker's report.
type Health struct {
	Status Status `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// CheckFunc produces a point-in-time health report. Checkers are invoked
// on every /healthz and /readyz request, so they must be cheap and safe
// for concurrent use.
type CheckFunc func() Health

// ArrayHealth returns a checker reporting the vdisk array's redundancy
// state: ok while every disk accepts I/O, degraded (listing the slots)
// while any disk is fail-stopped. Replace + rebuild returns it to ok.
func ArrayHealth(a *vdisk.Array) CheckFunc {
	return func() Health {
		failed := a.FailedDisks()
		if len(failed) == 0 {
			return Health{Status: StatusOK, Detail: fmt.Sprintf("%d disks healthy", a.Len())}
		}
		return Health{
			Status: StatusDegraded,
			Detail: fmt.Sprintf("%d/%d disks failed: %v", len(failed), a.Len(), failed),
		}
	}
}

// MigratorHealth returns a checker reporting the online migrator's
// lifecycle: running/pending/finished are ok, an explicit pause is
// degraded, and a terminal conversion error is failed.
func MigratorHealth(m *migrate.OnlineMigrator) CheckFunc {
	return func() Health {
		pr := m.ProgressSnapshot()
		detail := fmt.Sprintf("%s: %d/%d stripes", pr.State(), pr.Converted, pr.Total)
		switch pr.State() {
		case "failed":
			return Health{Status: StatusFailed, Detail: detail + ": " + pr.Error}
		case "paused":
			return Health{Status: StatusDegraded, Detail: detail}
		default:
			return Health{Status: StatusOK, Detail: detail}
		}
	}
}

// ProgressSource is anything that can report live migration progress;
// *migrate.OnlineMigrator implements it.
type ProgressSource interface {
	ProgressSnapshot() migrate.ProgressReport
}
