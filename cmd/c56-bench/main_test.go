package main

import (
	"net/http/httptest"
	"testing"
	"time"

	code56 "code56"
	"code56/internal/serve"
	"code56/internal/telemetry"
)

// TestLoadGen drives the load client against a real serve.Server on
// loopback: it must learn the volume's geometry from the server, complete
// reads and writes without an error, and report ordered quantiles.
func TestLoadGen(t *testing.T) {
	r5, err := code56.NewRAID5Array(4, code56.WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(telemetry.NewRegistry())
	tenant, err := srv.AddTenant("demo", serve.QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tenant.AddVolume("vol0", r5, 48); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	rep, err := runLoadGen(hs.URL, "demo", "vol0", 2, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phase != "load" || rep.Errors != 0 || rep.Reads == 0 || rep.Writes == 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.ReadP50US <= 0 || rep.ReadP99US < rep.ReadP50US || rep.WriteP99US < rep.WriteP50US {
		t.Fatalf("quantiles implausible: %+v", rep)
	}
	if _, err := runLoadGen(hs.URL, "demo", "nonesuch", 1, time.Millisecond); err == nil {
		t.Error("a volume the server does not have was driven")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if q := quantile(s, 0.5); q != 3 {
		t.Fatalf("p50 = %v", q)
	}
	if q := quantile(s, 0.99); q != 5 {
		t.Fatalf("p99 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty = %v", q)
	}
}
