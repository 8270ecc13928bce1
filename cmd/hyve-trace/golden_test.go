package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenDigests pins the SHA-256 of run's complete output on YT for
// every format × traced configuration × {PR, SSSP}: the access stream,
// its summary and the catapult timeline must not move by a byte when the
// walk that produces them is restructured.
var goldenDigests = map[[3]string]string{
	{"csv", "hyve", "PR"}:            "bfce1090fe679f17b5c04f78921f872d6e80b3374cbbeedc05045c0d05dd5567",
	{"csv", "hyve", "SSSP"}:          "1f43c84d94bfd00b446c9e60f3f58b33f72bc963872cae4f5cf971476025b66c",
	{"csv", "hyve-opt", "PR"}:        "bcc70e47046ded94b8fb159144b06a85a14f914c3be96896873aa3455516136d",
	{"csv", "hyve-opt", "SSSP"}:      "c4d304eddb8722c1fcaf7a984dd4da68c0c46518405cc26c6aa9f949c9d520f3",
	{"csv", "sd", "PR"}:              "bfce1090fe679f17b5c04f78921f872d6e80b3374cbbeedc05045c0d05dd5567",
	{"csv", "sd", "SSSP"}:            "1f43c84d94bfd00b446c9e60f3f58b33f72bc963872cae4f5cf971476025b66c",
	{"jsonl", "hyve", "PR"}:          "f2e4b0ce049d759092cff149a181283487c81af60f66dc6d59305cecaeffdd2e",
	{"jsonl", "hyve", "SSSP"}:        "da4389c008a7946b35db1be3bc772f5f4a29b052f152a2902aa79c4c084985ee",
	{"jsonl", "hyve-opt", "PR"}:      "4368ce669ec7c01e1ba0695f2cead880dd1dd62c30c3183598f63e6cbd0fb4c0",
	{"jsonl", "hyve-opt", "SSSP"}:    "1915777a444c59827b0fc7a20efb84b4983df823295b11d5bff70695b4aa04a6",
	{"jsonl", "sd", "PR"}:            "f2e4b0ce049d759092cff149a181283487c81af60f66dc6d59305cecaeffdd2e",
	{"jsonl", "sd", "SSSP"}:          "da4389c008a7946b35db1be3bc772f5f4a29b052f152a2902aa79c4c084985ee",
	{"summary", "hyve", "PR"}:        "e7b85c7c8a42e29a372998a8f2c370e2622d0d320604a29de549d137b87d624e",
	{"summary", "hyve", "SSSP"}:      "e0b3214dd8828dcc01097c9727bff0ed354cef497a8030ded2b59da48646f2e7",
	{"summary", "hyve-opt", "PR"}:    "7b0c737470e7669b0861ee0d50863e5b20494a1086f5709ecb34a6f3b3db10e9",
	{"summary", "hyve-opt", "SSSP"}:  "e997fd69948291a69f71e500aa98cf129b2eacbfe6a2d8cc6cdde29f55637385",
	{"summary", "sd", "PR"}:          "107665555a63cdd58e7969515973cd98ebdaf9b50fe0fab4557df67c45e2c992",
	{"summary", "sd", "SSSP"}:        "d50abc602e1c739763dc17b2a095a12118eb7fe3d617075768f2c53eeb9a0898",
	{"timeline", "hyve", "PR"}:       "4b57a763f2e68e5c77ae68282a816eb5ec552a938c1c4bb44bd51cad6344af6a",
	{"timeline", "hyve", "SSSP"}:     "19d82f6595250bb98842131453e0fef28caa00fe5b34376bdf08b245c711c770",
	{"timeline", "hyve-opt", "PR"}:   "7d19300cd99c78a16aedcecfd1d97f6022fcccbd2db373ed3c7bf8a9f1955ac3",
	{"timeline", "hyve-opt", "SSSP"}: "5247c37011c0adde3df3d13ad756bcd863218eef6762d969760d99791769787b",
	{"timeline", "sd", "PR"}:         "542d58204d90b44b0137979cd87cda7e775bf2bd86302a916799914eaf3d5f4f",
	{"timeline", "sd", "SSSP"}:       "85d37e336846c4bf070e48be344900bb32a26e5b8cfc0e62cd42abdd6083c7c3",
}

func TestOutputGolden(t *testing.T) {
	for key, want := range goldenDigests {
		format, config, algo := key[0], key[1], key[2]
		var buf bytes.Buffer
		if err := run(&buf, "YT", algo, config, format, 0); err != nil {
			t.Fatalf("%s %s %s: %v", format, config, algo, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s %s %s: %d bytes, sha256 %s, want %s", format, config, algo, buf.Len(), got, want)
		}
	}
}
