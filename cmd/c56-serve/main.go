// Command c56-serve exposes code56 arrays as a multi-tenant network
// block service: per-tenant QoS (token-bucket bandwidth + in-flight
// admission caps), connection-level backpressure, and online RAID-5 →
// Code 5-6 migrations whose bandwidth follows a time-of-day timetable so
// they yield to foreground traffic. The observability plane (/metrics,
// /healthz, /progress, /debug/pprof) shares the service listener.
//
// Usage:
//
//	c56-serve -http :8080 -demo
//	c56-serve -http :8080 -demo -migrate -bw "08:00,10M 23:00,off"
//	c56-serve -http :8080 -config tenants.json
//
// The config file is JSON:
//
//	{
//	  "max_conns": 256,
//	  "bw": "08:00,10M 23:00,off",
//	  "tenants": [
//	    {"name": "acme",
//	     "qos": {"bytes_per_sec": 10485760, "max_in_flight": 32},
//	     "volumes": [
//	       {"name": "vol0", "disks": 4, "stripes": 64, "block": 4096,
//	        "backend": "mem:", "migrate": true, "seed": 1}
//	     ]}
//	  ]
//	}
//
// SIGINT/SIGTERM drain the plane gracefully; finished migrations are
// scrub-verified on exit and any damage fails the process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"

	code56 "code56"
	"code56/internal/obs"
	"code56/internal/serve"
	"code56/internal/serve/bwtimetable"
	"code56/internal/telemetry"
)

func main() {
	var (
		httpAddr = flag.String("http", ":8080", "address to serve blocks and the observability plane on")
		cfgPath  = flag.String("config", "", "JSON tenant/volume config file (see package doc)")
		demo     = flag.Bool("demo", false, "serve a built-in demo tenant instead of -config")
		disks    = flag.Int("disks", 4, "demo: RAID-5 disks per volume (disks+1 must be prime)")
		stripes  = flag.Int64("stripes", 64, "demo: Code 5-6 stripes per volume")
		block    = flag.Int("block", 4096, "demo: block size in bytes")
		backend  = flag.String("backend", "", "demo: block-store backend spec, 'mem:' or 'file:<dir>'")
		migrate  = flag.Bool("migrate", false, "demo: start an online RAID-5 to Code 5-6 migration on the demo volume")
		bw       = flag.String("bw", "", "migration bandwidth timetable, e.g. '08:00,10M 23:00,off' (overrides the config's)")
		maxConns = flag.Int("max-conns", 256, "connection-level backpressure: concurrently open connections")
	)
	flag.Parse()
	if err := run(*httpAddr, *cfgPath, *demo, demoConfig{
		disks: *disks, stripes: *stripes, block: *block,
		backend: *backend, migrate: *migrate,
	}, *bw, *maxConns); err != nil {
		fmt.Fprintln(os.Stderr, "c56-serve:", err)
		os.Exit(1)
	}
}

// volumeConfig describes one served array.
type volumeConfig struct {
	Name    string `json:"name"`
	Disks   int    `json:"disks"`
	Stripes int64  `json:"stripes"`
	Block   int    `json:"block"`
	Backend string `json:"backend"`
	Migrate bool   `json:"migrate"`
	// Seed fills the array with reproducible data before serving (the
	// migration needs bytes to move; 0 leaves the array zeroed).
	Seed int64 `json:"seed"`
}

type tenantConfig struct {
	Name    string         `json:"name"`
	QoS     serve.QoS      `json:"qos"`
	Volumes []volumeConfig `json:"volumes"`
}

type serverConfig struct {
	MaxConns int            `json:"max_conns"`
	BW       string         `json:"bw"`
	Tenants  []tenantConfig `json:"tenants"`
}

// notifyReady, when set (tests), receives the bound listen address once
// the server is accepting.
var notifyReady func(addr string)

type demoConfig struct {
	disks   int
	stripes int64
	block   int
	backend string
	migrate bool
}

func loadConfig(path string, demo bool, d demoConfig) (*serverConfig, error) {
	switch {
	case path != "" && demo:
		return nil, fmt.Errorf("-config and -demo are mutually exclusive")
	case path != "":
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var cfg serverConfig
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(cfg.Tenants) == 0 {
			return nil, fmt.Errorf("%s: no tenants", path)
		}
		return &cfg, nil
	case demo:
		return &serverConfig{
			Tenants: []tenantConfig{{
				Name: "demo",
				QoS:  serve.QoS{MaxInFlight: 64},
				Volumes: []volumeConfig{{
					Name: "vol0", Disks: d.disks, Stripes: d.stripes,
					Block: d.block, Backend: d.backend,
					Migrate: d.migrate, Seed: 1,
				}},
			}},
		}, nil
	default:
		return nil, fmt.Errorf("need -config <file> or -demo")
	}
}

// migration is one volume's in-flight conversion plus its shaping state.
type migration struct {
	tenant, volume string
	stripes        int64
	mig            *code56.OnlineMigrator
}

// buildVolume opens the volume's RAID-5 through the facade, fills it with
// seeded data, and (optionally) wraps it in an online migrator.
func buildVolume(vc volumeConfig) (serve.BlockIO, int64, *code56.OnlineMigrator, error) {
	if vc.Disks == 0 {
		vc.Disks = 4
	}
	if vc.Stripes == 0 {
		vc.Stripes = 64
	}
	if vc.Block == 0 {
		vc.Block = 4096
	}
	p := vc.Disks + 1
	rows := vc.Stripes * int64(p-1)
	blocks := rows * int64(vc.Disks-1)
	r5, err := code56.NewRAID5Array(vc.Disks,
		code56.WithBackend(vc.Backend),
		code56.WithBlockSize(vc.Block),
		code56.WithLayout(code56.LeftAsymmetric))
	if err != nil {
		return nil, 0, nil, err
	}
	if vc.Seed != 0 {
		if err := fillArray(r5, blocks, vc.Block, vc.Seed); err != nil {
			return nil, 0, nil, err
		}
	}
	if !vc.Migrate {
		return r5, blocks, nil, nil
	}
	mig, err := code56.NewMigrator(r5, rows)
	if err != nil {
		return nil, 0, nil, err
	}
	return serve.MigratorIO{M: mig}, blocks, mig, nil
}

func run(httpAddr, cfgPath string, demo bool, d demoConfig, bwFlag string, maxConns int) error {
	cfg, err := loadConfig(cfgPath, demo, d)
	if err != nil {
		return err
	}
	if bwFlag != "" {
		cfg.BW = bwFlag
	}
	if maxConns > 0 {
		cfg.MaxConns = maxConns
	}
	tt, err := bwtimetable.Parse(cfg.BW)
	if err != nil {
		return err
	}

	reg := telemetry.Default()
	srv := serve.NewServer(reg)
	plane := obs.New(reg)
	plane.Handle("/v1/", srv.Handler())

	var migrations []*migration
	for _, tc := range cfg.Tenants {
		tenant, err := srv.AddTenant(tc.Name, tc.QoS)
		if err != nil {
			return err
		}
		for _, vc := range tc.Volumes {
			io, blocks, mig, err := buildVolume(vc)
			if err != nil {
				return fmt.Errorf("tenant %s volume %s: %w", tc.Name, vc.Name, err)
			}
			if _, err := tenant.AddVolume(vc.Name, io, blocks); err != nil {
				return err
			}
			if mig != nil {
				name := tc.Name + "/" + vc.Name
				plane.RegisterProgress(name, mig)
				plane.RegisterHealth(name, obs.MigratorHealth(mig))
				migrations = append(migrations, &migration{
					tenant: tc.Name, volume: vc.Name,
					stripes: stripesOf(vc), mig: mig,
				})
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Start the migrations shaped by the timetable before traffic lands.
	for _, m := range migrations {
		ctrl := bwtimetable.NewController(tt, m.mig, m.mig.StripeConversionBytes())
		rate := ctrl.Apply()
		go ctrl.Run(ctx)
		if err := m.mig.Start(); err != nil {
			return err
		}
		fmt.Printf("migrating %s/%s online: %d stripes at %s (timetable %q)\n",
			m.tenant, m.volume, m.stripes, bwtimetable.FormatRate(rate), tt)
	}

	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	handle := plane.StartListener(serve.Limit(ln, cfg.MaxConns, reg))
	fmt.Printf("serving %d tenant(s) on http://%s (max %d conns)\n",
		len(cfg.Tenants), handle.Addr(), cfg.MaxConns)
	if notifyReady != nil {
		notifyReady(handle.Addr())
	}

	<-ctx.Done()
	stop() // a second signal kills the process the default way
	fmt.Println("signal received; draining")
	if err := handle.Drain(); err != nil {
		return err
	}
	return verifyMigrations(migrations)
}

// verifyMigrations scrub-checks every finished conversion on the way
// out; a still-running one is parked at its watermark (file-backed
// migrations resume from the journal via c56-migrate -resume).
func verifyMigrations(migrations []*migration) error {
	for _, m := range migrations {
		converted, total := m.mig.Progress()
		if converted != total {
			fmt.Printf("migration %s/%s parked at stripe %d of %d\n", m.tenant, m.volume, converted, total)
			continue
		}
		if err := m.mig.Wait(); err != nil {
			return fmt.Errorf("migration %s/%s: %w", m.tenant, m.volume, err)
		}
		r6, err := m.mig.Result()
		if err != nil {
			return err
		}
		rep, err := code56.ScrubArray(context.Background(), r6, m.stripes, code56.ScrubCheck)
		if err != nil {
			return err
		}
		if !rep.Clean() {
			return fmt.Errorf("migration %s/%s: scrub found damage: %+v", m.tenant, m.volume, rep)
		}
		fmt.Printf("migration %s/%s: scrub clean (%d stripes)\n", m.tenant, m.volume, m.stripes)
	}
	return nil
}

func stripesOf(vc volumeConfig) int64 {
	if vc.Stripes == 0 {
		return 64
	}
	return vc.Stripes
}

func fillArray(r5 *code56.RAID5, blocks int64, block int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, block)
	for L := int64(0); L < blocks; L++ {
		rng.Read(buf)
		if err := r5.WriteBlock(L, buf); err != nil {
			return err
		}
	}
	return nil
}
