#include "serve/request.hh"

#include <cmath>

#include "common/json_parse.hh"
#include "core/study_json.hh"
#include "obs/provenance.hh"

namespace stack3d {
namespace serve {

const char *
studyKindName(StudyKind kind)
{
    switch (kind) {
      case StudyKind::Memory:
        return "memory";
      case StudyKind::Logic:
        return "logic";
      case StudyKind::Sensitivity:
        return "sensitivity";
      case StudyKind::StackThermal:
        break;
    }
    return "stack-thermal";
}

std::string
Request::canonicalSpec() const
{
    switch (kind) {
      case StudyKind::Memory:
        return core::canonicalSpecJson(memory);
      case StudyKind::Logic:
        return core::canonicalSpecJson(logic);
      case StudyKind::Sensitivity:
        return core::canonicalSpecJson(sensitivity);
      case StudyKind::StackThermal:
        break;
    }
    return core::canonicalSpecJson(stack_thermal);
}

std::uint64_t
Request::digest() const
{
    return core::specDigest(studyKindName(kind), options,
                            canonicalSpec());
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    JsonValue root;
    if (!parseJson(line, root, error)) {
        error = "request: " + error;
        return false;
    }

    core::JsonObjectReader r(root, "request");

    unsigned schema_version = 0;
    if (!r.readUnsigned("schema_version", schema_version) &&
        r.error().empty()) {
        error = "request: missing 'schema_version'";
        return false;
    }
    if (r.error().empty() && schema_version != obs::kSchemaVersion) {
        error = "request: schema_version " +
                std::to_string(schema_version) +
                " not supported (this server speaks " +
                std::to_string(obs::kSchemaVersion) + ")";
        return false;
    }

    std::string study;
    if (!r.readString("study", study) && r.error().empty()) {
        error = "request: missing 'study'";
        return false;
    }
    if (r.error().empty()) {
        if (study == "memory")
            out.kind = StudyKind::Memory;
        else if (study == "logic")
            out.kind = StudyKind::Logic;
        else if (study == "stack-thermal")
            out.kind = StudyKind::StackThermal;
        else if (study == "sensitivity")
            out.kind = StudyKind::Sensitivity;
        else {
            error = "request: unknown study '" + study + "'";
            return false;
        }
    }

    r.readString("id", out.id);
    r.readUnsigned("deadline_ms", out.deadline_ms);
    r.readString("trace_id", out.trace_id);

    if (const JsonValue *options = r.readMember("options")) {
        if (!core::parseRunOptions(*options, out.options, error))
            return false;
    }
    if (const JsonValue *spec = r.readMember("spec")) {
        bool ok = false;
        switch (out.kind) {
          case StudyKind::Memory:
            ok = core::parseMemoryStudySpec(*spec, out.memory, error);
            break;
          case StudyKind::Logic:
            ok = core::parseLogicStudySpec(*spec, out.logic, error);
            break;
          case StudyKind::StackThermal:
            ok = core::parseStackThermalSpec(*spec, out.stack_thermal,
                                             error);
            break;
          case StudyKind::Sensitivity:
            ok = core::parseSensitivitySpec(*spec, out.sensitivity,
                                            error);
            break;
        }
        if (!ok)
            return false;
    }

    if (!r.finish()) {
        error = r.error();
        return false;
    }

    // A logic request sizes its traces and Table 4's lanes from
    // uops_per_trace x depth, so bound that before anything runs.
    if (out.kind == StudyKind::Logic &&
        !(core::scaledTraceUops(out.options, out.logic) <=
          double(core::kMaxLogicTraceUops))) {
        error = "request: logic uops_per_trace x depth must be finite "
                "and at most " +
                std::to_string(core::kMaxLogicTraceUops);
        return false;
    }
    return true;
}

} // namespace serve
} // namespace stack3d
