#include "check/repro.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/error.hh"
#include "util/json.hh"
#include "util/units.hh"

namespace rampage
{

namespace
{

constexpr int reproSchemaVersion = 1;

const char *
familyName(HierarchyConfig::Family family)
{
    return family == HierarchyConfig::Family::Paged ? "paged"
                                                    : "conventional";
}

HierarchyConfig::Family
familyFromName(const std::string &name)
{
    if (name == "paged")
        return HierarchyConfig::Family::Paged;
    if (name == "conventional")
        return HierarchyConfig::Family::Conventional;
    throw ConfigError("fuzz repro: unknown hierarchy family '%s'",
                      name.c_str());
}

const char *
l2StyleName(ConventionalConfig::L2Style style)
{
    return style == ConventionalConfig::L2Style::ColumnAssoc
               ? "column-assoc"
               : "set-assoc";
}

ConventionalConfig::L2Style
l2StyleFromName(const std::string &name)
{
    if (name == "set-assoc")
        return ConventionalConfig::L2Style::SetAssoc;
    if (name == "column-assoc")
        return ConventionalConfig::L2Style::ColumnAssoc;
    throw ConfigError("fuzz repro: unknown L2 style '%s'", name.c_str());
}

const char *
cacheReplName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::LRU:
        return "lru";
      case ReplPolicy::Random:
        return "random";
      case ReplPolicy::FIFO:
        return "fifo";
    }
    return "lru";
}

ReplPolicy
cacheReplFromName(const std::string &name)
{
    if (name == "lru")
        return ReplPolicy::LRU;
    if (name == "random")
        return ReplPolicy::Random;
    if (name == "fifo")
        return ReplPolicy::FIFO;
    throw ConfigError("fuzz repro: unknown cache replacement '%s'",
                      name.c_str());
}

const char *
pageReplName(PageReplKind kind)
{
    switch (kind) {
      case PageReplKind::Clock:
        return "clock";
      case PageReplKind::Fifo:
        return "fifo";
      case PageReplKind::Random:
        return "random";
      case PageReplKind::Lru:
        return "lru";
      case PageReplKind::Standby:
        return "standby";
    }
    return "clock";
}

PageReplKind
pageReplFromName(const std::string &name)
{
    if (name == "clock")
        return PageReplKind::Clock;
    if (name == "fifo")
        return PageReplKind::Fifo;
    if (name == "random")
        return PageReplKind::Random;
    if (name == "lru")
        return PageReplKind::Lru;
    if (name == "standby")
        return PageReplKind::Standby;
    throw ConfigError("fuzz repro: unknown page replacement '%s'",
                      name.c_str());
}

const char *
dramKindName(CommonConfig::DramKind kind)
{
    return kind == CommonConfig::DramKind::Sdram ? "sdram"
                                                 : "direct-rambus";
}

CommonConfig::DramKind
dramKindFromName(const std::string &name)
{
    if (name == "direct-rambus")
        return CommonConfig::DramKind::DirectRambus;
    if (name == "sdram")
        return CommonConfig::DramKind::Sdram;
    throw ConfigError("fuzz repro: unknown DRAM kind '%s'",
                      name.c_str());
}

std::uint64_t
getU64(const JsonValue &obj, const char *key)
{
    const JsonValue &v = obj.at(key);
    if (!v.isNumber())
        throw ConfigError("fuzz repro: key '%s' is not a number", key);
    std::int64_t raw = v.asInt();
    if (raw < 0)
        throw ConfigError("fuzz repro: key '%s' is negative", key);
    return static_cast<std::uint64_t>(raw);
}

bool
getBool(const JsonValue &obj, const char *key)
{
    const JsonValue &v = obj.at(key);
    if (v.type() != JsonValue::Type::Bool)
        throw ConfigError("fuzz repro: key '%s' is not a bool", key);
    return v.asBool();
}

std::string
getStr(const JsonValue &obj, const char *key)
{
    const JsonValue &v = obj.at(key);
    if (!v.isString())
        throw ConfigError("fuzz repro: key '%s' is not a string", key);
    return v.asString();
}

} // namespace

std::string
fuzzPointToJson(const FuzzPoint &point)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::integer(
                          static_cast<std::int64_t>(reproSchemaVersion)));
    doc.set("generator_seed", JsonValue::integer(point.generatorSeed));
    doc.set("point_index", JsonValue::integer(point.pointIndex));
    doc.set("note", JsonValue::str(point.note));
    doc.set("family", JsonValue::str(familyName(point.hier.family)));

    const CommonConfig &c = point.hier.common();
    JsonValue common = JsonValue::object();
    common.set("issue_hz", JsonValue::integer(c.issueHz));
    common.set("l1_size_bytes", JsonValue::integer(c.l1SizeBytes));
    common.set("l1_block_bytes", JsonValue::integer(c.l1BlockBytes));
    common.set("l1_assoc",
               JsonValue::integer(std::uint64_t{c.l1Assoc}));
    common.set("tlb_entries",
               JsonValue::integer(std::uint64_t{c.tlb.entries}));
    common.set("tlb_assoc",
               JsonValue::integer(std::uint64_t{c.tlb.assoc}));
    common.set("tlb_lru", JsonValue::boolean(c.tlb.lruReplacement));
    common.set("dram_kind", JsonValue::str(dramKindName(c.dramKind)));
    common.set("dram_page_bytes", JsonValue::integer(c.dramPageBytes));
    doc.set("common", std::move(common));

    if (point.hier.family == HierarchyConfig::Family::Conventional) {
        const ConventionalConfig &cc = point.hier.conventional;
        JsonValue conv = JsonValue::object();
        conv.set("l2_size_bytes", JsonValue::integer(cc.l2SizeBytes));
        conv.set("l2_block_bytes", JsonValue::integer(cc.l2BlockBytes));
        conv.set("l2_assoc",
                 JsonValue::integer(std::uint64_t{cc.l2Assoc}));
        conv.set("l2_style", JsonValue::str(l2StyleName(cc.l2Style)));
        conv.set("l2_repl", JsonValue::str(cacheReplName(cc.l2Repl)));
        conv.set("victim_entries",
                 JsonValue::integer(std::uint64_t{cc.victimEntries}));
        doc.set("conventional", std::move(conv));
    } else {
        const PagedConfig &pc = point.hier.paged;
        JsonValue paged = JsonValue::object();
        paged.set("page_bytes", JsonValue::integer(pc.pager.pageBytes));
        paged.set("base_sram_bytes",
                  JsonValue::integer(pc.pager.baseSramBytes));
        paged.set("tag_bytes_per_block",
                  JsonValue::integer(pc.pager.tagBytesPerBlock));
        paged.set("repl", JsonValue::str(pageReplName(pc.pager.repl)));
        paged.set("standby_pages",
                  JsonValue::integer(pc.pager.standbyPages));
        paged.set("seed", JsonValue::integer(pc.pager.seed));
        paged.set("default_page_bytes",
                  JsonValue::integer(pc.pager.defaultPageBytes));
        // Map entries sorted by pid so dumps are stable and diffable.
        JsonValue by_pid = JsonValue::object();
        std::vector<Pid> pids;
        for (const auto &entry : pc.pager.pageBytesByPid)
            pids.push_back(entry.first);
        std::sort(pids.begin(), pids.end());
        for (Pid pid : pids) {
            char key[16];
            std::snprintf(key, sizeof(key), "%u", unsigned{pid});
            by_pid.set(key, JsonValue::integer(
                                pc.pager.pageBytesByPid.at(pid)));
        }
        paged.set("page_bytes_by_pid", std::move(by_pid));
        paged.set("switch_on_miss",
                  JsonValue::boolean(pc.switchOnMiss));
        doc.set("paged", std::move(paged));
    }

    JsonValue sim = JsonValue::object();
    sim.set("max_refs", JsonValue::integer(point.sim.maxRefs));
    sim.set("quantum_refs", JsonValue::integer(point.sim.quantumRefs));
    sim.set("insert_switch_trace",
            JsonValue::boolean(point.sim.insertSwitchTrace));
    doc.set("sim", std::move(sim));
    doc.set("workload_salt", JsonValue::integer(point.workloadSalt));
    doc.set("fault", JsonValue::str(point.faultSpec));
    return doc.dump(2);
}

FuzzPoint
fuzzPointFromJson(const std::string &text)
{
    JsonValue doc = JsonValue::parse(text);
    if (!doc.isObject())
        throw ConfigError("fuzz repro: document is not an object");
    std::uint64_t schema = getU64(doc, "schema");
    if (schema != reproSchemaVersion)
        throw ConfigError("fuzz repro: unsupported schema version %llu",
                          static_cast<unsigned long long>(schema));

    FuzzPoint point;
    point.generatorSeed = getU64(doc, "generator_seed");
    point.pointIndex = getU64(doc, "point_index");
    point.note = getStr(doc, "note");
    point.hier.family = familyFromName(getStr(doc, "family"));

    const JsonValue &common = doc.at("common");
    CommonConfig c{};
    c.issueHz = getU64(common, "issue_hz");
    c.l1SizeBytes = getU64(common, "l1_size_bytes");
    c.l1BlockBytes = getU64(common, "l1_block_bytes");
    c.l1Assoc = static_cast<unsigned>(getU64(common, "l1_assoc"));
    c.tlb.entries =
        static_cast<unsigned>(getU64(common, "tlb_entries"));
    c.tlb.assoc = static_cast<unsigned>(getU64(common, "tlb_assoc"));
    c.tlb.lruReplacement = getBool(common, "tlb_lru");
    c.dramKind = dramKindFromName(getStr(common, "dram_kind"));
    c.dramPageBytes = getU64(common, "dram_page_bytes");

    if (point.hier.family == HierarchyConfig::Family::Conventional) {
        const JsonValue &conv = doc.at("conventional");
        ConventionalConfig cc{};
        cc.common = c;
        cc.l2SizeBytes = getU64(conv, "l2_size_bytes");
        cc.l2BlockBytes = getU64(conv, "l2_block_bytes");
        cc.l2Assoc = static_cast<unsigned>(getU64(conv, "l2_assoc"));
        cc.l2Style = l2StyleFromName(getStr(conv, "l2_style"));
        cc.l2Repl = cacheReplFromName(getStr(conv, "l2_repl"));
        cc.victimEntries =
            static_cast<unsigned>(getU64(conv, "victim_entries"));
        point.hier.conventional = cc;
    } else {
        const JsonValue &paged = doc.at("paged");
        PagedConfig pc{};
        pc.common = c;
        pc.pager.pageBytes = getU64(paged, "page_bytes");
        pc.pager.baseSramBytes = getU64(paged, "base_sram_bytes");
        pc.pager.tagBytesPerBlock =
            getU64(paged, "tag_bytes_per_block");
        pc.pager.repl = pageReplFromName(getStr(paged, "repl"));
        pc.pager.standbyPages = getU64(paged, "standby_pages");
        pc.pager.seed = getU64(paged, "seed");
        pc.pager.defaultPageBytes =
            getU64(paged, "default_page_bytes");
        const JsonValue &by_pid = paged.at("page_bytes_by_pid");
        if (!by_pid.isObject())
            throw ConfigError(
                "fuzz repro: page_bytes_by_pid is not an object");
        for (const auto &member : by_pid.members()) {
            std::uint64_t pid = parseCount(
                member.first, "fuzz repro: page_bytes_by_pid key");
            if (pid > 0xfffe)
                throw ConfigError(
                    "fuzz repro: bad pid key '%s' in "
                    "page_bytes_by_pid",
                    member.first.c_str());
            if (!member.second.isNumber() || member.second.asInt() < 0)
                throw ConfigError(
                    "fuzz repro: page size for pid %s is not a "
                    "non-negative number",
                    member.first.c_str());
            pc.pager.pageBytesByPid[static_cast<Pid>(pid)] =
                static_cast<std::uint64_t>(member.second.asInt());
        }
        pc.switchOnMiss = getBool(paged, "switch_on_miss");
        point.hier.paged = pc;
    }

    const JsonValue &sim = doc.at("sim");
    point.sim = SimConfig{};
    point.sim.maxRefs = getU64(sim, "max_refs");
    point.sim.quantumRefs = getU64(sim, "quantum_refs");
    point.sim.insertSwitchTrace = getBool(sim, "insert_switch_trace");
    if (point.sim.maxRefs == 0 || point.sim.quantumRefs == 0)
        throw ConfigError(
            "fuzz repro: max_refs and quantum_refs must be positive");
    // Replays always run with an armed runaway watchdog.
    point.sim.watchdogRefBudget =
        point.sim.maxRefs * 20 + 10'000'000;
    point.workloadSalt = getU64(doc, "workload_salt");
    point.faultSpec = getStr(doc, "fault");
    return point;
}

FuzzPoint
loadFuzzPoint(const std::string &path)
{
    std::FILE *fh = std::fopen(path.c_str(), "rb");
    if (!fh)
        throw ConfigError("fuzz repro: cannot open '%s'", path.c_str());
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), fh)) > 0)
        text.append(buf, got);
    std::fclose(fh);
    try {
        return fuzzPointFromJson(text);
    } catch (const ConfigError &err) {
        throw ConfigError("%s: %s", path.c_str(), err.what());
    }
}

void
saveFuzzPoint(const FuzzPoint &point, const std::string &path)
{
    std::string text = fuzzPointToJson(point);
    std::FILE *fh = std::fopen(path.c_str(), "wb");
    if (!fh)
        throw ConfigError("fuzz repro: cannot write '%s'",
                          path.c_str());
    bool ok = std::fwrite(text.data(), 1, text.size(), fh) ==
              text.size();
    ok = std::fclose(fh) == 0 && ok;
    if (!ok)
        throw ConfigError("fuzz repro: short write to '%s'",
                          path.c_str());
}

} // namespace rampage
