"""Golden CLI outputs: sha256 digests of stdout (and of stderr for scan).

The digests were taken from the release before the range kernel replaced
the per-index loops in seq, sets, radset and verify, and those of profile
at 7792666 and 131231772 from the release before qualifying_primes stopped
sieving to n/2, and those of verify with oracle limit 300 and with an
injected oracle fault from the release before the oracle moved from one
Fraction per coefficient to integer numerators over a shared denominator,
and those of sets and scan to 3000000, three chunks of 2^20, from the
release before find_sets moved onto the scan's chunk grid and the run count
onto an int32 difference array, and those of profile at 100000000003 from
the release before the single-index route cut its support with the masks of
PrimePairs: there some support primes pass 3.04e9, whose squares wrap in
int64. The scan to 3000000 on two worker threads carries the digests of
the same scan on one; any change to the bytes a command prints fails here.
The help digests, of the program and of each subcommand, were taken with
Python 3.11 at 80 columns from the release before the subparsers named their
handlers with set_defaults, and that of scan again when its default --chunk
began to grow with a limit past 2^32, and when its workers became threads.
"""

import contextlib
import hashlib
import io

import pytest

from berndenom.cli import main
from berndenom.denom import SEQUENCES

SEQ_WINDOWS = ((1, 400), (9_900, 10_100))


def _cases() -> list[tuple[str, ...]]:
    commands = []
    for name in SEQUENCES:
        ks = (1, 2, 3) if name == "db_k" else (None,)
        windows = SEQ_WINDOWS + (((0, 60),) if name in ("db", "ds") else ())
        for k in ks:
            for lo, hi in windows:
                extra = ("--k", str(k)) if k else ()
                commands.append(("seq", name, str(lo), str(hi), *extra))
    for n in (1, 100, 1679, 27886, 467230, 7792666, 131231772, 100000000003):
        commands.append(("profile", str(n)))
    for k in (1, 2, 3):
        for limit in ("2000", "3000000"):
            commands.append(("sets", "--k", str(k), "--limit", limit))
    commands.append(("radset", "--limit", "5000"))
    commands.append(("verify", "--limit", "2000", "--oracle-limit", "60"))
    commands.append(("verify", "--limit", "2000", "--oracle-limit", "300"))
    commands.append(("verify", "--inject-fault", "oracle-equivalence:7"))
    commands.append(("scan", "--limit", "100000", "--chunk", "4096"))
    commands.append(("scan", "--limit", "3000000"))
    commands.append(("scan", "--limit", "3000000", "--threads", "2"))
    return [(fmt, *cmd) for cmd in commands for fmt in ("csv", "json")]


CASES = _cases()


def run_digests(argv: tuple[str, ...]) -> tuple[str, str | None]:
    """(sha256 of stdout, sha256 of stderr or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", *argv])
    expected = 1 if "--inject-fault" in argv else 0  # an injected fault fails verify
    assert code == expected, (argv, err.getvalue())
    digest = lambda text: hashlib.sha256(text.encode("ascii")).hexdigest()
    return digest(out.getvalue()), digest(err.getvalue()) if argv[1] == "scan" else None


GOLDEN = {
    'csv seq dd 1 400': ('276cf10152e569fbf2cb9bd041c9120da7aa777429c10a0d775cab722dec4660', None),
    'json seq dd 1 400': ('4c44a69155466455e9d0b89a451bbb25d130e1a32186863f7f19269f1c2b633a', None),
    'csv seq dd 9900 10100': ('82e5737c5e0ee55914510fb46b43f13b9fbf8f2133469b7c371b15ec2eed6cfc', None),
    'json seq dd 9900 10100': ('29cafed043d3666fd4779891f45e23198da4277cfaf2145cd32cb799239612bc', None),
    'csv seq dn 1 400': ('5e19bf5d3839cacfcf3341df21ec804126676b0dc30089858d993af5695e3114', None),
    'json seq dn 1 400': ('201ba8a13b5f93ba75ed20b81b7144562dbc12cf8a4ff4565a86cfe503fcff49', None),
    'csv seq dn 9900 10100': ('e01b9ba0c3f8f9e6e627c82807ad035320e5be58c081c76a4e57561563154ccd', None),
    'json seq dn 9900 10100': ('dcfaf7e79e87c8ffa646e0293dbdc8cf380b93c3884fd97f5e88cc6f6fa900a6', None),
    'csv seq db 1 400': ('925c98fd6eb7509d026e4504fdb68c46bc42402821ee5f52d02c2d20b3f8f55e', None),
    'json seq db 1 400': ('337cf6fb96440bf74ff8dbdcbbbcd0a3003a9076aaf5e1092a2213afa385dd92', None),
    'csv seq db 9900 10100': ('4327ddf367b92514370775c8e2da56a8e0e4814207d06b9a58f21c33d430d0cc', None),
    'json seq db 9900 10100': ('55dc2ca8c2d69d13e33944e0c9b46a8568bd5e67792a0597d4e68cf384caf0d6', None),
    'csv seq db 0 60': ('4c9af0aae10b4c43459ebb63e43b48cc32abf1a570d56e082fec62bef68be126', None),
    'json seq db 0 60': ('f5ea8d8a73fb90a3c342d3a370e5cd8e333aabedcd81d6eb8f45d30bb50524fe', None),
    'csv seq ds 1 400': ('12e3d02be3254a1744a0445b492fd7bfd10345eb6d748800ce8ae8ac8ffe4cf5', None),
    'json seq ds 1 400': ('152638873f9ff31f990904c349c7145d5e35a92c16fb6ae6f349f6805df79413', None),
    'csv seq ds 9900 10100': ('20656bfc31203b7f00d74d106b6fea93d1c7f6e47d5f9ffb9ce0d0c5e523cd5d', None),
    'json seq ds 9900 10100': ('8c09b31b5a17f815d7bee44da5aa2b489ae72bc91390d3a270c1818a4e2072bb', None),
    'csv seq ds 0 60': ('c36b6d1e45f9b23f11b32c0f18582a2acde3d9bb830179c749fb7bc7fed32877', None),
    'json seq ds 0 60': ('85adaa1e769ef6a6d6e58b6b5a5b0e4ea434c7e4601dffb3186bb9558bd93db7', None),
    'csv seq dd_plus 1 400': ('b711b71508a9fa50b828fdc4a4693eebc7dbbd8f425f959a36b0ddc8d97d0205', None),
    'json seq dd_plus 1 400': ('1fed989eb84e4c40d2f6d765ca12f110b9786271ae6a166ef7aaecb7a71cf390', None),
    'csv seq dd_plus 9900 10100': ('e249f27fbf09a6f825d8d504ab58f691785222bcead4ea70ae7800f938355772', None),
    'json seq dd_plus 9900 10100': ('c4d8dcf592444d962a3e1f24b6a8ad75d65981bc4628622717ad4e54c23462b2', None),
    'csv seq dd_minus 1 400': ('637c102018d1e2f2435f7da10d3e6330bbc0b6aeba84b23dd1b97ba5c0d67c38', None),
    'json seq dd_minus 1 400': ('0e26dc0f9952527d2778d70c741f2443da555195fb5e4ea16c923f42737e8774', None),
    'csv seq dd_minus 9900 10100': ('cee3fa84323bbc81c712ea856f53ac77387a05527d0b6753da833ff64b3f01fc', None),
    'json seq dd_minus 9900 10100': ('2a439d0dc2cdc26c14db87c1af27e49644c2d7f68bf85a5eaac9dade47222b08', None),
    'csv seq dd_coprime 1 400': ('65f09d33255cedc020fd009987e3d1d10415153c7d5279ec83435b611273b55e', None),
    'json seq dd_coprime 1 400': ('1fb688b8e94221f5d46f6cfa3666f564254f16b0923d17f829ebd2b8973261c3', None),
    'csv seq dd_coprime 9900 10100': ('98faccabcf1d359cdb575999888ebcccefbc0422c62f3df976b5947f66e0feb5', None),
    'json seq dd_coprime 9900 10100': ('03ae662b0ed1853928f8a4f85348dacab2012bb7838a77891d4ce20f2412813e', None),
    'csv seq dd_shared 1 400': ('b2285abb98f005353e68bc6784b02b534cbfa94906c3d5cf798f2d7b0976b4bd', None),
    'json seq dd_shared 1 400': ('8553107a8acdc59602ca38e5e2d2a7ec2a23a3ff0dececac3a58b5ba443675ca', None),
    'csv seq dd_shared 9900 10100': ('2eb99cbec74512574394dca7473c4d91cc539577c0fb84194cb9a7587c04ccad', None),
    'json seq dd_shared 9900 10100': ('39685e1ca90d56d8da19e37399f218a199c019666442145b9131f815f0609c33', None),
    'csv seq dd_complement 1 400': ('53736baea74dd31d1c47547e71d8593ff1244ae4cb6b1fc9b0f89c28eaa5dd1c', None),
    'json seq dd_complement 1 400': ('6217c877df019b14048f43a12ac51ac722d0cb6b68b4934f5871acee65e92f2c', None),
    'csv seq dd_complement 9900 10100': ('6a5ddb1daeba754299e203786617ce5355cbdbe9153f2c280a2f7078680c3bce', None),
    'json seq dd_complement 9900 10100': ('44bfbf83dff6d9347eb325ff837a7c43d3ccf2afc389485937916d58916f64ce', None),
    'csv seq omega_plus 1 400': ('e6cad96577e0b0f9c5233880d2fc8bfa02dd60d20cf7b7681659f77ce11152f2', None),
    'json seq omega_plus 1 400': ('9811d2030921ed2405caa3803101ce5519b167b221ecb237965551df1b3a55d9', None),
    'csv seq omega_plus 9900 10100': ('159dd190ab31127635b78a2c6b2fd5250a4f5ad63228d350efbc8d4705b52e68', None),
    'json seq omega_plus 9900 10100': ('1086f6a18e94949ff130920406cad745d2b4a4953414e2f809e6d0d8104fa817', None),
    'csv seq db_k 1 400 --k 1': ('65f09d33255cedc020fd009987e3d1d10415153c7d5279ec83435b611273b55e', None),
    'json seq db_k 1 400 --k 1': ('2b956bcd8bc81e9b7af49e83d1e3cda3d9dbe513abf38070a0883df489e6d97f', None),
    'csv seq db_k 9900 10100 --k 1': ('98faccabcf1d359cdb575999888ebcccefbc0422c62f3df976b5947f66e0feb5', None),
    'json seq db_k 9900 10100 --k 1': ('7d16ab7feadb0c7eb72df2182c070fb44a24ff29d281c5d510cb18c984859c30', None),
    'csv seq db_k 1 400 --k 2': ('1c182f7fad6a4db2dccf7fb4b0b317d1986f8880f6bfcd8194b750fc14c52df9', None),
    'json seq db_k 1 400 --k 2': ('41f2d964d693991b188dc03c772e163fcc1336be48358254a0cf376a97503a9c', None),
    'csv seq db_k 9900 10100 --k 2': ('2613e90962de8b0b0e2f7098acf67cd9450173c27c5aa677d14f4f2684866f30', None),
    'json seq db_k 9900 10100 --k 2': ('3930ab8d743de0d79cc16ae6b3bc356e7d821f6288c3d3488592e5ed5ae65e58', None),
    'csv seq db_k 1 400 --k 3': ('664446d91c0985278336b37dd06b06f0b6a45504593fd3632c8c38824d6a240a', None),
    'json seq db_k 1 400 --k 3': ('f54b4dd0a89461990056525f36c85d31d1198855dabe665b01a94e9b4fa6c2f4', None),
    'csv seq db_k 9900 10100 --k 3': ('432562655f4fdf2ab1043113e6b98e18067c4d0752bea9d757a8eb8506443e3f', None),
    'json seq db_k 9900 10100 --k 3': ('d838fa88b0c0ec9549f7c1ae8a9623db1fc7dc4b4ae7f9955746e5f6a7917464', None),
    'csv profile 1': ('cfe200af926a59aff80cec4d809fcbba69821c67195518d728e3bade0a52aa61', None),
    'json profile 1': ('0d1d80001b62b619233d2ddbd5092ebd9ed6c3bbac1d2e78dd2cf9445cb8be07', None),
    'csv profile 100': ('ff5133151ba1eb1fd214bee9fefe1ae2a262ba04ffa700ecd37589b20f59b026', None),
    'json profile 100': ('d5a4056fdf65f75eb225fa6b577d2812150abbc711e401f24116e6c8011d7ee2', None),
    'csv profile 1679': ('d8bd31d471e1527d28502cd60c19f1f65b5ea29dd46216ac47cb2b38a3b1ca19', None),
    'json profile 1679': ('5f193d5192021373a222374d7cc1c78d6a1b05515a937f1cba4a09df37a2c921', None),
    'csv profile 27886': ('498bd42dcd01c0aa6a9bf2468a5c086f3499165f75bf45a1b4271ed3c045e6bb', None),
    'json profile 27886': ('5d219b6ffc5b91bf6d87684a382c3922f3fa41814913efa367d65aa35b008bf8', None),
    'csv profile 467230': ('56ba174d2e3831e19a765ddf10951a21fe4be060ebd26d5c245a4396d7d4c8bd', None),
    'json profile 467230': ('3a282c85f2a535e3bae053cac6a43a256b2e84b48d572b9d5fe1ded4d7ac33de', None),
    'csv profile 7792666': ('a0a2e153118cc89a977a0078fb3e2b780b153a032583d4f6b8b6d987d3155695', None),
    'json profile 7792666': ('3bbec65ae56d3b205e5ec726dc9063671125f7f01e6968b86d3034e4cea73857', None),
    'csv profile 131231772': ('fc3735a98395e4fcee16f299fd200b9d6f3763e59d41dad5d20a8c3cae93cb25', None),
    'json profile 131231772': ('cb6af83e217edf309a093b4d37096c63698cfc0a741464c2d1b1e961643f4b6f', None),
    'csv profile 100000000003': ('0cf20fe51a953642b381ed1f5206d33c711d7cda6000125be81ec4f0b0efa3f8', None),
    'json profile 100000000003': ('90d071f5cbfc333ad73f9d7f6040e76e7b94944ff82a35f1a307aa135f579e52', None),
    'csv sets --k 1 --limit 2000': ('2500315a7186255709591d1bfc1188b1b8c4176f9a80d6d788129bb01ef7d9d1', None),
    'csv sets --k 1 --limit 3000000': ('2500315a7186255709591d1bfc1188b1b8c4176f9a80d6d788129bb01ef7d9d1', None),
    'json sets --k 1 --limit 2000': ('503e9cd517f11dce3612691b8189954e01f25980c06d42b3f778f9629d926f43', None),
    'json sets --k 1 --limit 3000000': ('c01903c42209b8e4d346a79975199326fdd3620ced1fb6d97aae8ed9994de452', None),
    'csv sets --k 2 --limit 2000': ('054e0962197af3fec7659ac49c9204cd2c1b3075b4471de0acc9e70b76334176', None),
    'csv sets --k 2 --limit 3000000': ('054e0962197af3fec7659ac49c9204cd2c1b3075b4471de0acc9e70b76334176', None),
    'json sets --k 2 --limit 2000': ('ccd3d0cca7b5bf697f24e4bc719161ceff6a09bafadc6e1501deaa2556d048a5', None),
    'json sets --k 2 --limit 3000000': ('f082d5e6e4df5aecc4d88baad8f1a2471158c8e4f2170dee1a0f93104248c56c', None),
    'csv sets --k 3 --limit 2000': ('2a52adc2abd6b4dc3677213080ed13205c88ddf1425ce2f37b623ebca23cd9b8', None),
    'csv sets --k 3 --limit 3000000': ('2a52adc2abd6b4dc3677213080ed13205c88ddf1425ce2f37b623ebca23cd9b8', None),
    'json sets --k 3 --limit 2000': ('0d3adb0e5a0c62bfe10c8d64efb558bdddd0307604a064b9a343a6c721281a13', None),
    'json sets --k 3 --limit 3000000': ('5224113a7d98297a621851591e9a23b401c01377b1da147dacc4c2a50983e3e3', None),
    'csv radset --limit 5000': ('8697e732b1313a34d5eeb3a77dfb647fa5a9d31da84ed98f2f1976b98897c32c', None),
    'json radset --limit 5000': ('9598e651b8e7eb168a5a28509ff117c6d4979d07eb33179b43af353d2fca7600', None),
    'csv verify --limit 2000 --oracle-limit 60': ('be2c759f44e2e34e5ff9ad51ca828e84cf70123a8e619b4eafaa563299eb8a82', None),
    'json verify --limit 2000 --oracle-limit 60': ('44c2dd03d8eb4301263fb834929d6b348457c038113e5587da8fd09b50829a5e', None),
    'csv verify --limit 2000 --oracle-limit 300': ('95fc69a067687efd0ead59c0a4ec24be11762461ba948e1bc1d233719969c65d', None),
    'json verify --limit 2000 --oracle-limit 300': ('717e0ba788f650bb9905c8d9c975ccf67e0ed8d50aff831048ea4589812fe50b', None),
    'csv verify --inject-fault oracle-equivalence:7': ('b4c5b7df2c780d6c93ae26d13ca0ef0c6dc899055fba615c5ef98fd547184271', None),
    'json verify --inject-fault oracle-equivalence:7': ('724dde9346292231a0016fe32975e86e8783a698683fefc4057f8b84266838ae', None),
    'csv scan --limit 100000 --chunk 4096': ('46daf0116c80c794fceac1e290e4c352bfec08eb552cfc3f3528abc60369efa1', '64f9da5816a0877d6ca26c758c08f27eff04e0da6487e389c2343b9b9740bc1c'),
    'csv scan --limit 3000000': ('46daf0116c80c794fceac1e290e4c352bfec08eb552cfc3f3528abc60369efa1', 'ccfe1ce6263628520deac609a900826d389b6c9bf9030a190507fbad73e50b83'),
    'json scan --limit 100000 --chunk 4096': ('56343468fd5903310ae611d5774fd47990bb218f3ae8b4968c1f2849ffee0bba', '64f9da5816a0877d6ca26c758c08f27eff04e0da6487e389c2343b9b9740bc1c'),
    'json scan --limit 3000000': ('71371ececae4aab29331586f383f13a9ee7e580db29dc57bdaf182dae1b92eb4', 'ccfe1ce6263628520deac609a900826d389b6c9bf9030a190507fbad73e50b83'),
    'csv scan --limit 3000000 --threads 2': ('46daf0116c80c794fceac1e290e4c352bfec08eb552cfc3f3528abc60369efa1', 'ccfe1ce6263628520deac609a900826d389b6c9bf9030a190507fbad73e50b83'),
    'json scan --limit 3000000 --threads 2': ('71371ececae4aab29331586f383f13a9ee7e580db29dc57bdaf182dae1b92eb4', 'ccfe1ce6263628520deac609a900826d389b6c9bf9030a190507fbad73e50b83'),
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_golden(argv):
    assert run_digests(argv) == GOLDEN[" ".join(argv)]


def test_every_case_has_a_digest():
    assert set(GOLDEN) == {" ".join(argv) for argv in CASES}


HELP_GOLDEN = {
    "": "f7050abd7ffb77b9458fda78be82eae00283974d65838f3f368a5d38d9909296",
    "profile": "d7e5d6079129da5960738b38afd0f6a5109b11e33f8328e97194de291e8679d1",
    "seq": "6b02d0d349d3f5bcadcb76a1f831fcccf5a1df851e2ab891ce97172666a89e74",
    "scan": "0a5ad73be041d51af97b4470b957c0210e62ff3d6c6029832adbbac6dc2a3a35",
    "sets": "432b7fb14eeaa7fd7bbfb76430a16f25305c28784d460cd34ea348d935a8be39",
    "radset": "8357e21884495e9662dce9b073517734cb8d693cdd43cd5831b0870ff9614afa",
    "verify": "4ffca722befc470058d7939c62994459803ff66a02d8b03f5f22da5c38348fa8",
}


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_matches_golden(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(out.getvalue().encode("ascii")).hexdigest() == HELP_GOLDEN[command]
