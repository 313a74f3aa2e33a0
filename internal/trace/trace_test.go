package trace

import (
	"fmt"
	"io"
	"testing"

	"adcache/internal/vfs"
	"adcache/internal/workload"
)

func sampleOps(n int) []workload.Op {
	ops := make([]workload.Op, n)
	for i := range ops {
		switch i % 3 {
		case 0:
			ops[i] = workload.Op{Kind: workload.OpGet, Key: []byte(fmt.Sprintf("k%05d", i))}
		case 1:
			ops[i] = workload.Op{Kind: workload.OpScan, Key: []byte(fmt.Sprintf("k%05d", i)), ScanLen: 16}
		case 2:
			ops[i] = workload.Op{Kind: workload.OpPut, Key: []byte(fmt.Sprintf("k%05d", i))}
		}
	}
	return ops
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("trace")
	w := NewWriter(f)
	ops := sampleOps(100)
	for _, op := range ops {
		if err := w.Record(op); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 100 {
		t.Fatalf("Len = %d", w.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	g, _ := fs.Open("trace")
	got, err := ReadAll(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("read %d ops", len(got))
	}
	for i := range got {
		if got[i].Kind != ops[i].Kind || string(got[i].Key) != string(ops[i].Key) ||
			got[i].ScanLen != ops[i].ScanLen {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], ops[i])
		}
	}
}

func TestReaderEOF(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("trace")
	NewWriter(f).Close()
	g, _ := fs.Open("trace")
	r, err := NewReader(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty trace Next err = %v", err)
	}
}

func TestCorruptTraceRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("trace")
	f.Write([]byte{200, 0, 0, 0, 1, 2, 3}) // frame promises 200 bytes
	g, _ := fs.Open("trace")
	if _, err := ReadAll(g); err != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
