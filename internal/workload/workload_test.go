package workload

import "testing"

func TestImageInRange(t *testing.T) {
	img := NewImage(64, 48, 1)
	if len(img.Pixels) != 64*48 {
		t.Fatalf("pixel count %d, want %d", len(img.Pixels), 64*48)
	}
	for i, p := range img.Pixels {
		if p > 255 {
			t.Fatalf("pixel %d = %d out of 8-bit range", i, p)
		}
	}
}

func TestImageDeterministic(t *testing.T) {
	a := NewImage(16, 16, 7)
	b := NewImage(16, 16, 7)
	for i := range a.Pixels {
		if a.Pixels[i] != b.Pixels[i] {
			t.Fatal("same seed must reproduce the image")
		}
	}
}

func TestDigitsClustered(t *testing.T) {
	data, labels := Digits(100, 32, 3)
	if len(data) != 100 || len(labels) != 100 {
		t.Fatal("wrong count")
	}
	// Same-label digits must be closer (L1) than different-label ones on
	// average.
	l1 := func(a, b []uint64) int {
		d := 0
		for i := range a {
			x := int(a[i]) - int(b[i])
			if x < 0 {
				x = -x
			}
			d += x
		}
		return d
	}
	sameSum, sameN, diffSum, diffN := 0, 0, 0, 0
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			d := l1(data[i], data[j])
			if labels[i] == labels[j] {
				sameSum += d
				sameN++
			} else {
				diffSum += d
				diffN++
			}
		}
	}
	if sameN == 0 || diffN == 0 {
		t.Skip("degenerate label draw")
	}
	if sameSum/sameN >= diffSum/diffN {
		t.Errorf("same-class distance %d not below cross-class %d", sameSum/sameN, diffSum/diffN)
	}
}

func TestLineItemRanges(t *testing.T) {
	li := NewLineItem(1000, 5)
	for i := 0; i < li.N; i++ {
		if li.Discount[i] > 10 {
			t.Fatal("discount out of range")
		}
		if li.Quantity[i] < 1 || li.Quantity[i] > 50 {
			t.Fatal("quantity out of range")
		}
		if li.ShipDate[i] < 9000 || li.ShipDate[i] >= 9000+2557 {
			t.Fatal("shipdate out of range")
		}
	}
}

func TestCodesWidth(t *testing.T) {
	for _, bits := range []int{1, 4, 7, 12} {
		codes := Codes(500, bits, 9)
		limit := uint64(1) << uint(bits)
		for _, c := range codes {
			if c >= limit {
				t.Fatalf("%d-bit code %d out of range", bits, c)
			}
		}
	}
}
