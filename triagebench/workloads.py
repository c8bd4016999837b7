"""Workload inputs for the triage benchmark, with their expected outputs.

Every generated app has a fixed shape: the seed picks names, API choices
and which apps carry a planted flow, but never the number or kind of
statements. Token counts, call-graph walks and slice sizes are therefore
the same on every seed, and the expectations below come from how each app
was built, not from running the program.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

# Sources whose value the committed malicious fixtures leak; a Malicious
# report must name this site in its evidence chain.
FIXTURE_PLANTED = {
    "fx_smsleak": "android.telephony.SmsMessage.getMessageBody()->string"
                  " @ com.fxsms.SmsReceiver.onReceive(context,intent)->void:1",
    "fx_spyloc": "android.location.LocationManager.getLastKnownLocation(string)->location"
                 " @ com.wallpapers.hd.SyncService.onStartCommand(intent,int)->int:1",
    "fx_dialerspy": "android.telephony.TelephonyManager.getDeviceId()->string"
                    " @ com.cards.fun.Harvest.leak()->void:1",
}

# large_apps: method counts of the generated apps (roughly 500 to 3,000).
LARGE_SIZES = (500, 1000, 2000, 3000)
# hostile_apps: (call-lattice width, lines of the long method) per app.
HOSTILE_SHAPES = ((4, 1000), (6, 1500), (8, 2000))
LATTICE_LAYERS = 6
TRIGGER_DEPTH = 5  # the shipped [budgets] trigger_depth
# Lines between the long method's source and its sink. The taint witness
# recursion grows by one frame per line, and about 1,000 lines overflow it.
HOSTILE_TAINT_SPAN = 600

_WORDS = ("atlas", "birch", "cobalt", "delta", "ember", "fjord", "garnet", "harbor",
          "indigo", "juniper", "kestrel", "lumen", "meadow", "nimbus", "onyx", "pixel")
_HELPER_NAMES = ("load", "sync", "parse", "render", "cache", "fetch", "store", "merge")
# Filler sources, all High or Medium under the large-app manifest; their
# results are never used, so they become candidates that taint exonerates.
_FILLER_SOURCES = (
    "android.database.Cursor.getString(int)->string(3)",
    "android.telephony.SmsMessage.getMessageBody()->string()",
    "android.telephony.SmsMessage.getOriginatingAddress()->string()",
    "android.location.Location.getLatitude()->double()",
    "android.location.Location.getLongitude()->double()",
    "android.telephony.TelephonyManager.getDeviceId()->string()",
    "android.telephony.TelephonyManager.getLine1Number()->string()",
    "android.os.Build.getSerial()->string()",
)
_NETWORK_SINKS = (
    "android.webkit.WebView.loadUrl(string)->void",
    "java.io.DataOutputStream.writeBytes(string)->void",
)
_STORAGE_SINK = "android.content.SharedPreferences.Editor.putString(string,string)->editor"
_DEVICE_SOURCES = (
    "android.telephony.TelephonyManager.getDeviceId()->string",
    "android.telephony.TelephonyManager.getLine1Number()->string",
    "android.telephony.TelephonyManager.getSimSerialNumber()->string",
)


@dataclass
class AppSpec:
    app_id: str
    label: str
    year: int
    manifest: str = ""
    ir: str = ""
    # CallSite rendering a Malicious report must cite in its evidence chain
    planted: str | None = None
    # method signature -> trigger_paths chain count from the construction
    chains: dict[str, int] = field(default_factory=dict)
    # "method:line" of a slice target -> kept lines from the construction
    slices: dict[str, list[int]] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    apps: list[AppSpec]
    index: Path  # dataset index the operations read through DatasetManifest
    callers: int
    live: bool


def _fixture_apps(root: Path) -> list[AppSpec]:
    apps = []
    with (root / "fixtures" / "corpus.idx").open(newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            app_id, _m, _i, label, year = (c.strip() for c in row)
            apps.append(AppSpec(app_id, label, int(year), planted=FIXTURE_PLANTED.get(app_id)))
    return apps


def _pkg(rng: random.Random, idx: int) -> str:
    return f"com.{rng.choice(_WORDS)}{rng.randrange(10, 100)}.a{idx}"


def large_app(rng: random.Random, idx: int, n_methods: int, malicious: bool) -> AppSpec:
    """A shallow app: each onClick root calls three helpers, and every helper
    makes one dead call to a catalog source, so recon fills its candidate
    cap. One broadcast receiver queries the content resolver; in a
    malicious app the cursor flows into a network sink."""
    pkg = _pkg(rng, idx)
    roots = n_methods // 4
    names = [f"{rng.choice(_HELPER_NAMES)}{j}" for j in range(3)]
    receiver = f"{pkg}.sync.SyncReceiver"
    on_receive = f"{receiver}.onReceive(context,intent)->void"
    sink = rng.choice(_NETWORK_SINKS)
    leak = "d" if malicious else '"none"'
    classes = [
        f"class {receiver} extends android.content.BroadcastReceiver {{\n"
        f"  method {on_receive} (ctx,it) {{\n"
        f"    q = call android.content.ContentResolver.query(uri)->cursor(it)\n"
        f"    d = q\n"
        f"    call {sink}({leak})\n"
        f"    return\n"
        f"  }}\n"
        f"}}\n"
    ]
    chains = {on_receive: 1}
    for r in range(roots):
        cls = f"{pkg}.ui.Screen{r}"
        helpers = [f"{cls}.{n}(string)->string" for n in names]
        body = [f"  method {cls}.onClick(view)->void (v) {{\n",
                f'    a = const "{rng.choice(_WORDS)}"\n',
                '    b = call android.content.Context.getSystemService(string)->object("svc")\n',
                f"    x = call {helpers[0]}(a)\n",
                f"    y = call {helpers[1]}(x)\n",
                f"    z = call {helpers[2]}(y)\n",
                '    call android.util.Log.d(string,string)->int("tag",z)\n',
                f"    w = call android.app.Activity.findViewById(int)->view({rng.randrange(1, 999)})\n",
                "    return\n", "  }\n"]
        for h in helpers:
            chains[h] = 1
            body += [f"  method {h} (p) {{\n",
                     f"    s = call {rng.choice(_FILLER_SOURCES)}\n",
                     "    t = call android.content.Intent.getStringExtra(string)->string(p)\n",
                     "    u = t\n",
                     f"    n = const {rng.randrange(0, 1000)}\n",
                     '    call android.util.Log.d(string,string)->int("tag",u)\n',
                     '    k = call android.widget.Toast.makeText(context,string,int)->toast("app",u,0)\n',
                     "    call android.widget.Toast.show()->void(k)\n",
                     "    nop\n",
                     '    c = call javax.crypto.Cipher.getInstance(string)->cipher("AES")\n',
                     f'    call {_STORAGE_SINK}("k",n)\n',
                     "    e = u\n",
                     "    return e\n", "  }\n"]
        classes.append(f"class {cls} extends android.app.Activity {{\n{''.join(body)}}}\n")
    rng.shuffle(classes)
    manifest = (f"package: {pkg}\ncategory: wallpaper gallery\n"
                "description: Curated wallpapers refreshed daily.\n"
                "permission:READ_SMS\npermission:ACCESS_FINE_LOCATION\n"
                "permission:READ_PHONE_STATE\npermission:INTERNET\n"
                f"component:Activity:{pkg}.ui.Screen0:exported\n"
                f"component:Receiver:{receiver}:action=BOOT_COMPLETED\n")
    app = AppSpec(f"large{idx}_{n_methods}", "Malicious" if malicious else "Benign",
                  2016 + idx, manifest, "".join(classes), chains=chains)
    if malicious:
        app.planted = f"android.content.ContentResolver.query(uri)->cursor @ {on_receive}:1"
        app.slices[f"{on_receive}:3"] = [1, 2, 3]
    return app


def hostile_app(rng: random.Random, idx: int, width: int, lines: int) -> AppSpec:
    """An attacker-shaped app. A location leak sits beneath a call lattice
    of LATTICE_LAYERS layers of `width` relays, each calling every relay of
    the layer below, so trigger_paths meets width**TRIGGER_DEPTH walks. The
    activity's onCreate is `lines` long: a device id flows into a storage
    sink whose key hangs off a def-use chain through the whole method."""
    pkg = _pkg(rng, idx)
    collect = f"{pkg}.net.Core.collect(string)->void"
    sink = rng.choice(_NETWORK_SINKS)
    classes = [
        f"class {pkg}.net.Core {{\n"
        f"  method {collect} (s) {{\n"
        f"    loc = call android.location.LocationManager.getLastKnownLocation(string)->location(s)\n"
        f"    d = loc\n"
        f"    call {sink}(d)\n"
        f"    return\n"
        f"  }}\n"
        f"}}\n"
    ]
    below = [collect]
    for layer in range(1, LATTICE_LAYERS + 1):
        here = []
        for j in range(width):
            cls = f"{pkg}.net.L{layer}N{j}"
            sig = f"{cls}.relay(string)->void"
            calls = "".join(f"    call {callee}(m)\n" for callee in below)
            classes.append(f"class {cls} {{\n  method {sig} (m) {{\n{calls}    return\n  }}\n}}\n")
            here.append(sig)
        below = here
    activity = f"{pkg}.ui.MainActivity"
    on_create = f"{activity}.onCreate(bundle)->void"
    source_line = lines - HOSTILE_TAINT_SPAN
    fold = f"app.{rng.choice(_WORDS)}.Mix.fold(string,string)->string"
    body = ['    k = const "key"\n', '    c = const "seed"\n']
    for line in range(3, lines - 1):
        if line == source_line:
            body.append(f"    id = call {rng.choice(_DEVICE_SOURCES)}()\n")
        else:
            body.append(f"    c = call {fold}(k,c)\n")
    body.append(f"    e = call {_STORAGE_SINK}(c,id)\n")
    body.append("    return\n")
    classes.append(f"class {activity} extends android.app.Activity {{\n"
                   f"  method {on_create} (b) {{\n{''.join(body)}  }}\n}}\n")
    rng.shuffle(classes)
    manifest = (f"package: {pkg}\ncategory: wallpaper gallery\n"
                "description: Curated wallpapers refreshed daily.\n"
                "permission:ACCESS_FINE_LOCATION\npermission:READ_PHONE_STATE\n"
                "permission:INTERNET\n"
                f"component:Activity:{activity}:exported\n")
    return AppSpec(
        f"hostile{idx}_w{width}_n{lines}", "Malicious", 2020 + idx, manifest,
        "".join(classes),
        planted=("android.location.LocationManager.getLastKnownLocation(string)->location"
                 f" @ {collect}:1"),
        chains={collect: width ** TRIGGER_DEPTH, on_create: 1},
        # sink line depends on every line but the final return
        slices={f"{collect}:3": [1, 2, 3], f"{on_create}:{lines - 1}": list(range(1, lines))},
    )


def _write(apps: list[AppSpec], out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for app in apps:
        d = out / app.app_id
        d.mkdir(exist_ok=True)
        (d / "app.mmf").write_text(app.manifest, encoding="utf-8")
        (d / "app.mir").write_text(app.ir, encoding="utf-8")
        rows.append(f"{app.app_id},{app.app_id}/app.mmf,{app.app_id}/app.mir,{app.label},{app.year}\n")
    index = out / "corpus.idx"
    index.write_text("# app_id,manifest,ir,label,year\n" + "".join(rows), encoding="utf-8")
    return index


NAMES = ("fixtures_scripted", "large_apps", "hostile_apps", "live_fixtures")


def build(name: str, seed: int, root: Path, out: Path) -> Workload:
    """Inputs for one workload. The fixture workloads triage the committed
    corpus as it stands, so their seed changes nothing."""
    rng = random.Random(seed)
    if name in ("fixtures_scripted", "live_fixtures"):
        live = name == "live_fixtures"
        return Workload(name, _fixture_apps(root), root / "fixtures" / "corpus.idx",
                        callers=2 if live else 1, live=live)
    if name == "large_apps":
        malicious = set(rng.sample(range(len(LARGE_SIZES)), len(LARGE_SIZES) // 2))
        apps = [large_app(rng, i, n, i in malicious) for i, n in enumerate(LARGE_SIZES)]
    elif name == "hostile_apps":
        apps = [hostile_app(rng, i, w, n) for i, (w, n) in enumerate(HOSTILE_SHAPES)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    return Workload(name, apps, _write(apps, out), callers=1, live=False)
