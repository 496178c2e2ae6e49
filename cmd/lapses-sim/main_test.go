package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"lapses/internal/core"
)

// TestEveryConfigFieldHasAFlag holds the command to the library: every
// field of core.Config is set by some flag, and that flag changes that
// field alone. Trace, a message list, has no command-line form.
func TestEveryConfigFieldHasAFlag(t *testing.T) {
	set := map[string][]string{
		"Dims":        {"-dims", "8x8"},
		"Torus":       {"-torus"},
		"Faults":      {"-faults", "4"},
		"Reliability": {"-reliability"},
		"LookAhead":   {"-lookahead=false"},
		"Algorithm":   {"-alg", "xy"},
		"Table":       {"-table", "meta-row"},
		"Selection":   {"-selection", "max-credit"},
		"Pattern":     {"-pattern", "transpose"},
		"Load":        {"-load", "0.3"},
		"MsgLen":      {"-msglen", "10"},
		"Burst":       {"-burst", "0.3,200"},
		"QoS":         {"-qos", "0.2"},
		"Warmup":      {"-warmup", "5"},
		"Measure":     {"-measure", "50"},
		"MaxCycles":   {"-max-cycles", "100"},
		"Seed":        {"-seed", "7"},
		"EventMode":   {"-events"},
	}
	noFlag := map[string]bool{"Trace": true}
	parsed := func(args []string) reflect.Value {
		t.Helper()
		fs := flag.NewFlagSet("lapses-sim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg, err := parse(fs, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return reflect.ValueOf(cfg)
	}
	base := parsed(nil)
	if !reflect.DeepEqual(base.Interface(), core.DefaultConfig()) {
		t.Errorf("no flags give %+v, not core.DefaultConfig()", base.Interface())
	}
	typ := base.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		args, ok := set[name]
		switch {
		case noFlag[name]:
			continue
		case !ok:
			t.Errorf("core.Config.%s: no lapses-sim flag sets it", name)
			continue
		}
		got := parsed(args)
		for j := 0; j < typ.NumField(); j++ {
			same := reflect.DeepEqual(got.Field(j).Interface(), base.Field(j).Interface())
			if j == i && same {
				t.Errorf("%v leaves Config.%s at its default", args, name)
			}
			if j != i && !same {
				t.Errorf("%v changes Config.%s, not only Config.%s", args, typ.Field(j).Name, name)
			}
		}
	}
}
