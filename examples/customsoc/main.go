// Customsoc assembles a system from scratch instead of loading an
// embedded benchmark: cores are described in the itc02 text format, the
// mesh and processor count are chosen explicitly, and the resulting
// plan is exported as CSV and JSON — the workflow for using the library
// on your own design.
package main

import (
	"fmt"
	"log"
	"os"

	"noctest"
)

// An eight-core design: two big scanned cores, a DSP block, peripherals.
const design = `
soc camera-soc
core 1 isp
  inputs 128
  outputs 96
  scanchains 210 210 210 208
  patterns 420
  power 900
end
core 2 dsp
  inputs 96
  outputs 96
  scanchains 180 180 180 180
  patterns 380
  power 750
end
core 3 usb
  inputs 40
  outputs 36
  scanchains 64 64
  patterns 150
  power 260
end
core 4 dram-ctl
  inputs 88
  outputs 72
  scanchains 96 96 96
  patterns 200
  power 430
end
core 5 crypto
  inputs 64
  outputs 64
  scanchains 128 128
  patterns 310
  power 520
end
core 6 gpio
  inputs 24
  outputs 24
  patterns 60
  power 80
end
core 7 i2s
  inputs 20
  outputs 18
  patterns 45
  power 60
end
core 8 timer
  inputs 16
  outputs 12
  patterns 30
  power 40
end
`

func main() {
	bench, err := noctest.ParseSoC(design)
	if err != nil {
		log.Fatal(err)
	}

	// A 3x4 mesh with two Plasma cores for test reuse.
	sys, err := noctest.BuildSystem(bench, noctest.BuildConfig{
		Mesh:       noctest.Mesh{Width: 3, Height: 4},
		Processors: 2,
		Profile:    noctest.Plasma(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys)

	p, err := noctest.Schedule(sys, noctest.Options{
		PowerLimitFraction: 0.6,
		Variant:            noctest.LookaheadFastestFinish,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(p.Summary())
	fmt.Println()
	fmt.Print(p.Gantt(90))

	fmt.Println("\nCSV export:")
	if err := p.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nJSON export (compact, one line):")
	if err := p.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
