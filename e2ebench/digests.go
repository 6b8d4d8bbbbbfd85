package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"strings"
)

// rowsDigest is the digest the benchmark records per workload and grid
// seed: SHA-256 over the CSV of every table's rows, in order.
func rowsDigest(tables ...[][]string) string {
	h := sha256.New()
	w := csv.NewWriter(h)
	for _, rows := range tables {
		w.WriteAll(rows) // flushes; writes to a hash cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// withHeader returns the grid's header row followed by its rows.
func withHeader(headers []string, rows [][]string) [][]string {
	return append([][]string{headers}, rows...)
}

// markdownRows returns the cells of a markdown body's table lines,
// skipping prose and elapsed lines, so a digest over them pins rows,
// not wording.
func markdownRows(body []byte) [][]string {
	var rows [][]string
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// gridSeeds is the size of the grid-seed set gridSeed draws from.
const gridSeeds = 8

// sweepDigests are the cold rows digests (rowsDigest) per sweep workload
// and grid seed, recorded at the commit that introduced the benchmark.
// A run whose rows hash differently fails. Regenerate a workload's
// table with `-print-digests -workload <name>` only when a change is
// meant to alter E17's rows, and say so in that change.
var sweepDigests = map[string]map[int64]string{
	"sweep-kt0-overflow": {
		1: "b1813898dafdbeb40fd1bedddc348ca98ae5d0dfadbb3c07235a775dfc83e7b6",
		2: "bfec70b6888e98d8f1f7ad5a6f3560a136b8636e79a9378747b4bac70ab7ff20",
		3: "4367be1b168d96be2aedd91a4ec10679bb2321f2b7b353180aa392daa39af8c2",
		4: "0c517247b94603ced730989cc744a23a1e16da5904e1304e26084ef4c199acf0",
		5: "4367be1b168d96be2aedd91a4ec10679bb2321f2b7b353180aa392daa39af8c2",
		6: "61ac40a07794eba6962c0b63f2e463dc34ed9dbc46d5adbf1694fa21abb6a988",
		7: "bfec70b6888e98d8f1f7ad5a6f3560a136b8636e79a9378747b4bac70ab7ff20",
		8: "4367be1b168d96be2aedd91a4ec10679bb2321f2b7b353180aa392daa39af8c2",
	},
	"sweep-ladder": {
		1: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
		2: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
		3: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
		4: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
		5: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
		6: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
		7: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
		8: "d871d43a38445c7fd97c55f9f9d5431c276a6fe15b6d9c5f8b3569fe7cc2a1bb",
	},
}

// serveDigests are the serve-mixed digests (rowsDigest over the table
// rows of the warm E13 report and the warm quick E17 sweep) per grid
// seed.
var serveDigests = map[int64]string{
	1: "b6b0a3bf3fb8f8704d3b7ccdc8f34afae7bbee0b82558ddd0d4e2dc49405cfd9",
	2: "6d6861e3c1e34dc01cce20cdbb32804875599d39ee2dda066b835541ea083d50",
	3: "ec91c962282b710fc49494db279484d9d554cdb913bdbadbc947dc7dd154088c",
	4: "ec91c962282b710fc49494db279484d9d554cdb913bdbadbc947dc7dd154088c",
	5: "e746916f310cb8c99120517e7efab0fbd9a30371bbbd88f6fe30524927a8101c",
	6: "dfbde05e7d66651195409b45451fb4368e0c060e97232b892f306d8640720f18",
	7: "1cdc86a296cca65811d9d6ba0800a8010607aba2cfe61b2f04622e1c6562d3e9",
	8: "d1ed81e723acd079de7094f88da3d1a3ffd34dd0f18863c101d137acabcbfdda",
}
