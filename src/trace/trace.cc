#include "trace/trace.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/rng.hh"
#include "util/strings.hh"

namespace pes {

uint64_t
eventClassKey(const std::string &app_name, int page_id, NodeId node,
              DomEventType type)
{
    const uint64_t app = hashString(app_name.c_str());
    const uint64_t local =
        (static_cast<uint64_t>(static_cast<uint32_t>(page_id)) << 40) |
        (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 8) |
        static_cast<uint64_t>(type);
    return hashCombine(app, local);
}

uint64_t
eventClassKeyFor(const std::string &app_name, int page_id, NodeId node,
                 const HandlerSpec &handler)
{
    // Handler-class ids live in a reserved node-id range so they cannot
    // collide with real node ids.
    constexpr NodeId kHandlerClassBase = 1 << 20;
    if (handler.type == DomEventType::Load &&
        handler.effect.kind == EffectKind::Navigate) {
        return eventClassKey(app_name, handler.effect.pageId,
                             kInvalidNode, handler.type);
    }
    if (handler.handlerClassId >= 0) {
        return eventClassKey(app_name, page_id,
                             kHandlerClassBase + handler.handlerClassId,
                             handler.type);
    }
    return eventClassKey(app_name, page_id, node, handler.type);
}

namespace {

bool
finiteNonNegative(double value)
{
    return std::isfinite(value) && value >= 0.0;
}

bool
validWork(const Workload &work)
{
    return finiteNonNegative(work.tmemMs) && finiteNonNegative(work.ndep);
}

} // namespace

bool
replayableTrace(const InteractionTrace &trace, std::string *why)
{
    if (trace.events.empty()) {
        if (why)
            *why = "trace has no events";
        return false;
    }
    for (size_t i = 0; i < trace.events.size(); ++i) {
        const TraceEvent &e = trace.events[i];
        const char *defect = nullptr;
        if (!finiteNonNegative(e.arrival))
            defect = "arrival is not a finite non-negative time";
        else if (i > 0 && e.arrival < trace.events[i - 1].arrival)
            defect = "arrival precedes the previous event's";
        else if (!validWork(e.callbackWork))
            defect = "callback work is not finite and non-negative";
        for (const Workload &stage : e.renderWork.stages) {
            if (!defect && !validWork(stage))
                defect = "render work is not finite and non-negative";
        }
        if (defect) {
            if (why)
                *why = "event " + std::to_string(i) + ": " + defect;
            return false;
        }
    }
    return true;
}

bool
operator==(const TraceEvent &a, const TraceEvent &b)
{
    return a.arrival == b.arrival && a.type == b.type && a.node == b.node &&
        a.pageId == b.pageId && a.x == b.x && a.y == b.y &&
        a.callbackWork == b.callbackWork &&
        a.renderWork.stages == b.renderWork.stages &&
        a.issuesNetwork == b.issuesNetwork && a.classKey == b.classKey;
}

bool
operator==(const InteractionTrace &a, const InteractionTrace &b)
{
    return a.appName == b.appName && a.userSeed == b.userSeed &&
        a.events == b.events;
}

std::string
InteractionTrace::serialize() const
{
    std::ostringstream out;
    out.precision(17);
    out << "pes-trace-v1\n";
    out << "app " << appName << "\n";
    out << "user " << userSeed << "\n";
    out << "events " << events.size() << "\n";
    for (const TraceEvent &e : events) {
        out << e.arrival << " " << domEventTypeName(e.type) << " "
            << e.node << " " << e.pageId << " " << e.x << " " << e.y << " "
            << e.callbackWork.tmemMs << " " << e.callbackWork.ndep;
        for (const Workload &stage : e.renderWork.stages)
            out << " " << stage.tmemMs << " " << stage.ndep;
        out << " " << (e.issuesNetwork ? 1 : 0) << " " << e.classKey
            << "\n";
    }
    return out.str();
}

std::optional<InteractionTrace>
InteractionTrace::deserialize(const std::string &blob)
{
    std::istringstream in(blob);
    std::string line;
    if (!std::getline(in, line) || trim(line) != "pes-trace-v1")
        return std::nullopt;

    InteractionTrace trace;
    size_t count = 0;
    {
        std::string key;
        if (!(in >> key) || key != "app" || !(in >> trace.appName))
            return std::nullopt;
        if (!(in >> key) || key != "user" || !(in >> trace.userSeed))
            return std::nullopt;
        if (!(in >> key) || key != "events" || !(in >> count))
            return std::nullopt;
    }
    // The header count only bounds the loop: events are appended as
    // they parse, so a huge count in a short file fails at its end
    // instead of sizing an allocation.
    for (size_t i = 0; i < count; ++i) {
        TraceEvent e;
        std::string type_name;
        if (!(in >> e.arrival >> type_name >> e.node >> e.pageId >> e.x >>
              e.y >> e.callbackWork.tmemMs >> e.callbackWork.ndep)) {
            return std::nullopt;
        }
        if (!parseDomEventType(type_name.c_str(), e.type))
            return std::nullopt;
        for (Workload &stage : e.renderWork.stages) {
            if (!(in >> stage.tmemMs >> stage.ndep))
                return std::nullopt;
        }
        int network = 0;
        if (!(in >> network >> e.classKey))
            return std::nullopt;
        e.issuesNetwork = network != 0;
        trace.events.push_back(e);
    }
    if (!replayableTrace(trace, nullptr))
        return std::nullopt;
    return trace;
}

bool
InteractionTrace::saveToFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << serialize();
    return static_cast<bool>(out);
}

std::optional<InteractionTrace>
InteractionTrace::loadFromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return deserialize(buffer.str());
}

} // namespace pes
