package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
)

// hostFacts is what two result files must agree on before their numbers
// may be compared. The git commit is recorded beside them but is not one:
// comparing two commits on one host is the point.
type hostFacts struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DurableFS  string `json:"durable_fs"`
}

func readHostFacts(dataDir string) hostFacts {
	return hostFacts{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		DurableFS:  fsTypeOf(dataDir),
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsTypeOf names the filesystem holding dir (created if missing): whether
// the durable workloads fsync to a disk or to memory decides their numbers.
func fsTypeOf(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// gitSHA is the commit the binary was built from, when the build could see
// one (go build stamps it inside a git work tree; an exported checkout has
// none).
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
