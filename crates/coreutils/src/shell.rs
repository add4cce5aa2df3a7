//! A small shell over the vfs: tokenizer, pipes, redirection, cwd.
//!
//! The paper's §5.4 argument is that network administration should be
//! possible with "simple one-liners" built from well-known utilities. This
//! shell runs those one-liners against the virtual file system:
//!
//! ```
//! # use std::sync::Arc;
//! # use yanc_vfs::{Filesystem, Credentials, Mode};
//! # use yanc_coreutils::Shell;
//! let fs = Arc::new(Filesystem::new());
//! fs.mkdir_all("/net/switches/sw1", Mode::DIR_DEFAULT, &Credentials::root()).unwrap();
//! let mut sh = Shell::new(fs);
//! assert_eq!(sh.run("ls /net/switches").out, "sw1\n");
//! sh.run("echo 1 > /net/switches/sw1/up");
//! assert_eq!(sh.run("cat /net/switches/sw1/up").out, "1\n");
//! ```
//!
//! Supported: `|` pipelines, `>` / `>>` redirection, single/double quotes,
//! `cd`/`pwd`, and the command set in [`crate::cmds`].

use std::sync::Arc;

use yanc_vfs::{Credentials, Filesystem, Namespace, VPath};

use crate::cmds;

/// The result of running a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Exit status: 0 on success.
    pub code: i32,
    /// Standard output.
    pub out: String,
    /// Standard error.
    pub err: String,
}

impl Output {
    pub(crate) fn ok(out: String) -> Output {
        Output {
            code: 0,
            out,
            err: String::new(),
        }
    }

    pub(crate) fn fail(err: impl Into<String>) -> Output {
        Output {
            code: 1,
            out: String::new(),
            err: err.into(),
        }
    }

    /// Whether the command succeeded.
    pub fn success(&self) -> bool {
        self.code == 0
    }
}

/// A shell session: namespace + credentials + working directory.
pub struct Shell {
    ns: Namespace,
    creds: Credentials,
    cwd: VPath,
}

impl Shell {
    /// A root shell over the whole filesystem, cwd `/`.
    pub fn new(fs: Arc<Filesystem>) -> Self {
        Shell {
            ns: Namespace::new(fs),
            creds: Credentials::root(),
            cwd: VPath::root(),
        }
    }

    /// A shell inside a mount namespace (e.g. confined to a view).
    pub fn with_namespace(ns: Namespace) -> Self {
        Shell {
            ns,
            creds: Credentials::root(),
            cwd: VPath::root(),
        }
    }

    /// Run as different credentials (`su`-style).
    pub fn with_creds(mut self, creds: Credentials) -> Self {
        self.creds = creds;
        self
    }

    /// The namespace this shell operates in.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Credentials in use.
    pub fn creds(&self) -> &Credentials {
        &self.creds
    }

    /// Current working directory.
    pub fn cwd(&self) -> &VPath {
        &self.cwd
    }

    /// Resolve `arg` against the cwd.
    pub fn resolve(&self, arg: &str) -> VPath {
        if arg.starts_with('/') {
            VPath::new(arg)
        } else {
            // Lexically resolve `.`/`..` against the cwd, like a real shell.
            let mut parts: Vec<String> = self.cwd.components().map(str::to_string).collect();
            for c in arg.split('/') {
                match c {
                    "" | "." => {}
                    ".." => {
                        parts.pop();
                    }
                    other => parts.push(other.to_string()),
                }
            }
            VPath::new(&format!("/{}", parts.join("/")))
        }
    }

    /// Run one command line (pipes + redirection). Never panics; errors
    /// come back in [`Output::err`].
    pub fn run(&mut self, line: &str) -> Output {
        let stages = split_pipeline(line);
        if stages.is_empty() {
            return Output::ok(String::new());
        }
        let mut stdin = String::new();
        let mut final_out = Output::ok(String::new());
        let last = stages.len() - 1;
        for (i, stage) in stages.iter().enumerate() {
            let (argv, redirect) = match tokenize(stage) {
                Ok(t) => t,
                Err(e) => return Output::fail(e),
            };
            if argv.is_empty() {
                continue;
            }
            let out = self.exec(&argv, &stdin);
            if i == last {
                if let Some((path, append)) = redirect {
                    let target = self.resolve(&path);
                    let r = if append {
                        self.ns
                            .append_file(target.as_str(), out.out.as_bytes(), &self.creds)
                    } else {
                        self.ns
                            .write_file(target.as_str(), out.out.as_bytes(), &self.creds)
                    };
                    final_out = match r {
                        Ok(()) => Output {
                            code: out.code,
                            out: String::new(),
                            err: out.err,
                        },
                        Err(e) => Output::fail(format!("{}: {e}", argv[0])),
                    };
                } else {
                    final_out = out;
                }
            } else {
                stdin = out.out;
                if !out.err.is_empty() {
                    final_out.err.push_str(&out.err);
                }
            }
        }
        final_out
    }

    /// Run several newline-separated commands; stops at the first failure.
    /// Returns the concatenated stdout.
    pub fn run_script(&mut self, script: &str) -> Output {
        let mut all = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let out = self.run(line);
            all.push_str(&out.out);
            if !out.success() {
                return Output {
                    code: out.code,
                    out: all,
                    err: out.err,
                };
            }
        }
        Output::ok(all)
    }

    fn exec(&mut self, argv: &[String], stdin: &str) -> Output {
        let args: Vec<&str> = argv.iter().skip(1).map(String::as_str).collect();
        match argv[0].as_str() {
            "cd" => {
                let target = self.resolve(args.first().copied().unwrap_or("/"));
                match self.ns.stat(target.as_str(), &self.creds) {
                    Ok(st) if st.is_dir() => {
                        self.cwd = target;
                        Output::ok(String::new())
                    }
                    Ok(_) => Output::fail(format!("cd: {target}: Not a directory")),
                    Err(e) => Output::fail(format!("cd: {e}")),
                }
            }
            "pwd" => Output::ok(format!("{}\n", self.cwd)),
            "ls" => cmds::ls(self, &args),
            "cat" => cmds::cat(self, &args, stdin),
            "echo" => cmds::echo(&args),
            "grep" => cmds::grep(self, &args, stdin),
            "find" => cmds::find(self, &args),
            "tree" => cmds::tree(self, &args),
            "mkdir" => cmds::mkdir(self, &args),
            "rmdir" => cmds::rmdir(self, &args),
            "rm" => cmds::rm(self, &args),
            "ln" => cmds::ln(self, &args),
            "mv" => cmds::mv(self, &args),
            "cp" => cmds::cp(self, &args),
            "touch" => cmds::touch(self, &args),
            "stat" => cmds::stat_cmd(self, &args),
            "stats" => cmds::stats(self, &args),
            "readlink" => cmds::readlink(self, &args),
            "chmod" => cmds::chmod(self, &args),
            "chown" => cmds::chown(self, &args),
            "head" => cmds::head(self, &args, stdin),
            "wc" => cmds::wc(&args, stdin),
            "ps" => cmds::ps(self, &args),
            "kill" => cmds::kill(self, &args),
            "lsfd" => cmds::lsfd(self, &args),
            "mount" => cmds::mount(self, &args),
            "sort" => cmds::sort(&args, stdin),
            "uniq" => cmds::uniq(stdin),
            "true" => Output::ok(String::new()),
            "false" => Output {
                code: 1,
                out: String::new(),
                err: String::new(),
            },
            other => Output::fail(format!("{other}: command not found")),
        }
    }
}

/// Split on `|` outside quotes.
fn split_pipeline(line: &str) -> Vec<String> {
    let mut stages = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    for c in line.chars() {
        match quote {
            Some(q) => {
                cur.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '\'' | '"' => {
                    quote = Some(c);
                    cur.push(c);
                }
                '|' => {
                    stages.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            },
        }
    }
    if !cur.trim().is_empty() {
        stages.push(cur);
    }
    stages
        .into_iter()
        .filter(|s| !s.trim().is_empty())
        .collect()
}

/// `(target path, append?)` of a parsed redirection.
type Redirection = Option<(String, bool)>;

/// Tokenize one stage, extracting a trailing `>`/`>>` redirection.
fn tokenize(stage: &str) -> Result<(Vec<String>, Redirection), String> {
    let mut tokens: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    let mut has_cur = false;
    for c in stage.chars() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                } else {
                    cur.push(c);
                }
            }
            None => match c {
                '\'' | '"' => {
                    quote = Some(c);
                    has_cur = true;
                }
                c if c.is_whitespace() => {
                    if has_cur || !cur.is_empty() {
                        tokens.push(std::mem::take(&mut cur));
                        has_cur = false;
                    }
                }
                '>' => {
                    if has_cur || !cur.is_empty() {
                        tokens.push(std::mem::take(&mut cur));
                        has_cur = false;
                    }
                    tokens.push(">".to_string());
                }
                _ => {
                    cur.push(c);
                    has_cur = true;
                }
            },
        }
    }
    if quote.is_some() {
        return Err("unterminated quote".to_string());
    }
    if has_cur || !cur.is_empty() {
        tokens.push(cur);
    }
    // Fold `> file` / `> > file` (from `>>`) into a redirection.
    let mut argv = Vec::new();
    let mut redirect = None;
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i] == ">" {
            let append = tokens.get(i + 1).map(|t| t == ">").unwrap_or(false);
            let fi = if append { i + 2 } else { i + 1 };
            let file = tokens.get(fi).ok_or("missing redirection target")?;
            redirect = Some((file.clone(), append));
            i = fi + 1;
        } else {
            argv.push(tokens[i].clone());
            i += 1;
        }
    }
    Ok((argv, redirect))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc_vfs::Mode;

    fn sh() -> Shell {
        let fs = Arc::new(Filesystem::new());
        let creds = Credentials::root();
        fs.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &creds)
            .unwrap();
        fs.mkdir_all("/net/switches/sw2", Mode::DIR_DEFAULT, &creds)
            .unwrap();
        fs.write_file("/net/switches/sw1/id", b"0x01\n", &creds)
            .unwrap();
        Shell::new(fs)
    }

    #[test]
    fn tokenizer_quotes_and_redirect() {
        let (argv, r) = tokenize(r#"echo 'hello world' "two  spaces" plain"#).unwrap();
        assert_eq!(argv, vec!["echo", "hello world", "two  spaces", "plain"]);
        assert!(r.is_none());
        let (argv, r) = tokenize("echo 1 > /tmp/f").unwrap();
        assert_eq!(argv, vec!["echo", "1"]);
        assert_eq!(r, Some(("/tmp/f".into(), false)));
        let (argv, r) = tokenize("echo x >> log").unwrap();
        assert_eq!(argv, vec!["echo", "x"]);
        assert_eq!(r, Some(("log".into(), true)));
        assert!(tokenize("echo 'unterminated").is_err());
        // Redirect glued to the argument.
        let (argv, r) = tokenize("echo 1>f").unwrap();
        assert_eq!(argv, vec!["echo", "1"]);
        assert_eq!(r, Some(("f".into(), false)));
    }

    #[test]
    fn pipeline_split_respects_quotes() {
        assert_eq!(split_pipeline("a | b | c").len(), 3);
        assert_eq!(split_pipeline("echo 'a|b' | wc -l").len(), 2);
        assert_eq!(split_pipeline("").len(), 0);
    }

    #[test]
    fn stats_flattens_the_proc_tree() {
        let fs = Arc::new(Filesystem::new());
        let creds = Credentials::root();
        fs.mkdir_all("/net", Mode::DIR_DEFAULT, &creds).unwrap();
        fs.mount_proc("/net/.proc").unwrap();
        let mut s = Shell::new(fs.clone());
        s.run("mkdir /net/switches");
        let out = s.run("stats");
        assert!(out.success(), "{}", out.err);
        let total = format!("/net/.proc/vfs/syscalls/total: {}", fs.counters().total());
        assert!(
            out.out.contains(&total),
            "missing `{total}` in:\n{}",
            out.out
        );
        assert!(out.out.contains("/net/.proc/vfs/syscalls/mkdir: "));
        assert_eq!(
            fs.stat("/net/.proc/vfs/latency", &creds).unwrap_err().errno,
            yanc_vfs::Errno::ENOENT
        );
        // Explicit root works too; a non-proc path fails cleanly.
        assert!(s.run("stats /net/.proc").success());
        assert!(!s.run("stats /net/nope").success());
    }

    #[test]
    fn echo_redirect_cat() {
        let mut s = sh();
        let out = s.run("echo 1 > /net/switches/sw1/up");
        assert!(out.success(), "{}", out.err);
        assert_eq!(s.run("cat /net/switches/sw1/up").out, "1\n");
        s.run("echo 2 >> /net/switches/sw1/up");
        assert_eq!(s.run("cat /net/switches/sw1/up").out, "1\n2\n");
    }

    #[test]
    fn cd_and_relative_paths() {
        let mut s = sh();
        assert!(s.run("cd /net/switches").success());
        assert_eq!(s.run("pwd").out, "/net/switches\n");
        assert_eq!(s.run("cat sw1/id").out, "0x01\n");
        assert!(s.run("cd ..").success());
        assert_eq!(s.run("pwd").out, "/net\n");
        assert!(!s.run("cd /nonexistent").success());
        assert!(!s.run("cd /net/switches/sw1/id").success());
    }

    #[test]
    fn pipes_feed_stdin() {
        let mut s = sh();
        let out = s.run("ls /net/switches | wc -l");
        assert_eq!(out.out.trim(), "2");
        let out = s.run("ls /net/switches | grep sw2");
        assert_eq!(out.out, "sw2\n");
    }

    #[test]
    fn unknown_command_fails() {
        let mut s = sh();
        let out = s.run("frobnicate /net");
        assert!(!out.success());
        assert!(out.err.contains("command not found"));
    }

    #[test]
    fn script_stops_on_failure() {
        let mut s = sh();
        let out = s.run_script(
            "# comment\n\
             echo a > /f1\n\
             cat /missing\n\
             echo never > /f2",
        );
        assert!(!out.success());
        assert!(!s.namespace().exists("/f2", s.creds()));
    }
}
