//! Network views (paper §4.2): slices and virtualized topologies.
//!
//! A view is "any logical representation of an underlying network". In the
//! file system a view is a directory under `views/` that contains its own
//! `hosts/ switches/ views/` (created automatically on `mkdir`, §3.1) plus
//! a `config/` directory describing the translation the view application
//! maintains:
//!
//! * `config/kind` — `slice` (subset of hardware + header space, original
//!   topology preserved) or `big-switch` (all member switches presented as
//!   one virtual switch),
//! * `config/switches` — member physical switches, one per line,
//! * `config/match.*` — the header-space predicate in the same notation as
//!   flow match files (absent = full header space).
//!
//! The slicer/virtualizer *application* (yanc-apps) reads this config and
//! maintains the translation; stacking works because a view's `switches/`
//! looks exactly like the global one, so another view can be built on it.

use yanc_openflow::FlowMatch;
use yanc_vfs::Mode;

use crate::error::{YancError, YancResult};
use crate::flowspec::FlowSpec;
use crate::yancfs::{field, Object, YancFs};

/// What transformation a view performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// A header-space slice over a subset of switches; topology unchanged.
    Slice,
    /// Member switches presented as a single big virtual switch.
    BigSwitch,
}

impl ViewKind {
    fn as_str(self) -> &'static str {
        match self {
            ViewKind::Slice => "slice",
            ViewKind::BigSwitch => "big-switch",
        }
    }

    fn parse(s: &str) -> Option<ViewKind> {
        match s.trim() {
            "slice" => Some(ViewKind::Slice),
            "big-switch" => Some(ViewKind::BigSwitch),
            _ => None,
        }
    }
}

/// A view's declarative configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewConfig {
    /// Transformation kind.
    pub kind: ViewKind,
    /// Member physical switch names.
    pub switches: Vec<String>,
    /// Header-space predicate (e.g. `tp_dst=22` slices ssh traffic).
    pub filter: FlowMatch,
}

/// Whether a `(file, contents)` pair is one of the `match.*` filter files.
fn is_match_file((file, _): &(String, String)) -> bool {
    file.starts_with("match.")
}

impl YancFs {
    /// `mkdir views/<name>` — the semantic hook auto-creates
    /// `hosts/ switches/ views/` inside it.
    pub fn create_view(&self, name: &str) -> YancResult<()> {
        Ok(self.filesystem().mkdir(
            self.view_dir(name).as_str(),
            Mode::DIR_DEFAULT,
            self.creds(),
        )?)
    }

    /// Write a view's `config/` directory.
    pub fn write_view_config(&self, name: &str, cfg: &ViewConfig) -> YancResult<()> {
        let fields = |_fresh| {
            // The filter reuses the flow match file notation.
            let filter = FlowSpec {
                m: cfg.filter,
                ..Default::default()
            };
            let mut f = vec![
                ("kind".to_string(), cfg.kind.as_str().to_string()),
                ("switches".to_string(), cfg.switches.join("\n")),
            ];
            f.extend(filter.to_files().into_iter().filter(is_match_file));
            Ok(f)
        };
        self.put_objects(&self.view_dir(name), [Object::new("config", fields)])?;
        Ok(())
    }

    /// Read a view's `config/` directory.
    pub fn read_view_config(&self, name: &str) -> YancResult<ViewConfig> {
        let files = self.read_fields(&self.view_dir(name).join("config"))?;
        let get = |file: &str| {
            field(&files, file)
                .ok_or_else(|| YancError::schema(format!("view {name} has no config/{file}")))
        };
        let kind_s = get("kind")?;
        let kind = ViewKind::parse(kind_s)
            .ok_or_else(|| YancError::parse("kind", format!("unknown view kind {kind_s:?}")))?;
        let switches = get("switches")?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect();
        let filter = files.iter().filter(|f| is_match_file(f));
        let spec = FlowSpec::from_files(filter.map(|(k, v)| (k.as_str(), v.as_str())))?;
        Ok(ViewConfig {
            kind,
            switches,
            filter: spec.m,
        })
    }

    /// List views at the top level.
    pub fn list_views(&self) -> YancResult<Vec<String>> {
        self.names_in(&self.root().join(crate::schema::VIEWS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use yanc_vfs::Filesystem;

    fn yfs() -> YancFs {
        YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap()
    }

    #[test]
    fn view_mkdir_autopopulates_fig2_shape() {
        let y = yfs();
        y.create_view("management-net").unwrap();
        let fs = y.filesystem();
        for d in ["hosts", "switches", "views"] {
            assert!(fs.exists(&format!("/net/views/management-net/{d}"), y.creds()));
        }
        assert_eq!(y.list_views().unwrap(), vec!["management-net"]);
    }

    #[test]
    fn config_roundtrip() {
        let y = yfs();
        y.create_view("ssh-slice").unwrap();
        let cfg = ViewConfig {
            kind: ViewKind::Slice,
            switches: vec!["sw1".into(), "sw2".into()],
            filter: FlowMatch {
                dl_type: Some(0x0800),
                nw_proto: Some(6),
                tp_dst: Some(22),
                ..Default::default()
            },
        };
        y.write_view_config("ssh-slice", &cfg).unwrap();
        assert_eq!(y.read_view_config("ssh-slice").unwrap(), cfg);
    }

    #[test]
    fn big_switch_kind() {
        let y = yfs();
        y.create_view("one-big-switch").unwrap();
        let cfg = ViewConfig {
            kind: ViewKind::BigSwitch,
            switches: vec!["sw1".into(), "sw2".into(), "sw3".into()],
            filter: FlowMatch::any(),
        };
        y.write_view_config("one-big-switch", &cfg).unwrap();
        let got = y.read_view_config("one-big-switch").unwrap();
        assert_eq!(got.kind, ViewKind::BigSwitch);
        assert_eq!(got.filter, FlowMatch::any());
    }

    #[test]
    fn bad_kind_rejected() {
        let y = yfs();
        y.create_view("v").unwrap();
        let fs = y.filesystem();
        fs.mkdir_all(
            "/net/views/v/config",
            yanc_vfs::Mode::DIR_DEFAULT,
            y.creds(),
        )
        .unwrap();
        fs.write_file("/net/views/v/config/kind", b"nonsense", y.creds())
            .unwrap();
        fs.write_file("/net/views/v/config/switches", b"", y.creds())
            .unwrap();
        assert!(y.read_view_config("v").is_err());
    }
}
