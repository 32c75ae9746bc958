package main

// pinned holds, per workload and seed, the digest of every simulated
// statistic the checker compares (see cellLine): the campaign's cells,
// or the in-process renders of serve-sparse's measured requests.
// Regenerate an entry with `teembench --workload W --seed N --print-pins`
// after a change that is meant to alter simulated results; a change that
// only speeds the program up must leave them alone.
var pinned = map[string]string{
	"campaign-dense/1":  "ecf93bebaea7b1fedf7ec129d32f660f402a780f9251d7acdb99c26c688d8e20",
	"campaign-dense/2":  "a303015bea17bcfe213d365fbf45c4150f991b76d827662964576423e035bc43",
	"campaign-dense/3":  "84a3e2042cdc9be42cd65848c477a139dc8f34fd8e496490cc6575e1abfa273d",
	"campaign-dense/4":  "1ed5984aac250e7deba94b7f9f8bfcc7e5aef13cd4471e1ec5fe936a229308cf",
	"campaign-dense/5":  "f5f932c39175126bfce9ab4fe1afc5be0df4d6cc2a2aad5d3211ff368d0c54cf",
	"campaign-dense/6":  "d876f9df5f8f771b15d675310df89e3f6921245d98c55a589778aa2737db9405",
	"campaign-dense/7":  "dbbca28e62d35f31fe3c0fb4ee312548ebed9661be9277849ba3397a624ae422",
	"campaign-dense/8":  "c1f3cbb659101ad7f7c42782f08bb617c699b266b3cbfebc6c614a05c33e48aa",
	"campaign-dense/9":  "c44e0d198167102000a2526cad7fe4f904eb273144f9e084e7181cf2a7c6562a",
	"campaign-dense/10": "efe435821a7822b2a0be17bd7156e661328560c08eb9368d928d480472f6a097",
	"serve-sparse/1":    "7fb356c5e98e2983ec0d56fb3edbd780f3589044a3692386f0723fe1ce838772",
	"serve-sparse/2":    "5503165e80c5e316d38ee9dce05249a4fad11cb8d162428d384f44d3111bf8bf",
	"serve-sparse/3":    "1e0d738ca558c8a92457a8942443e530dc8a571f0a3e254698990b51222b891d",
	"serve-sparse/4":    "972c008b391ccfbc799f3c4ca58873449c806256223d75c9618b29a5ca3e3f45",
	"serve-sparse/5":    "0f4538f31ecccc45f5728bd265559df83ff3aff4b86d65b74ee79852ee939701",
	"serve-sparse/6":    "86346a5aba3b5eb7da960a9045659204719c622c5ef04beb40d3947316ff08c4",
	"serve-sparse/7":    "1336bd19fbf5532a2768d5c94935ad2f4639a17b87226c6fa6a80c96a4418bab",
	"serve-sparse/8":    "49a95341a3a2ea90b3faecbd3c5de378f9c8e0b3df1a6b50535ecab5f38d44f4",
	"serve-sparse/9":    "eb8cc92118e6230dd0556a840790d75df0d7c39f0a4f0a0a0925ec6c973387e9",
	"serve-sparse/10":   "da30cff7655198b9bfccd3e7be42a08ab7df2061478725405aa917cb1ae1641e",
}
